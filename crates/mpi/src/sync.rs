//! Reusable synchronization primitives.
//!
//! The central piece is a **generation barrier**: arrivals are counted
//! under a mutex, and every party but the last parks its own thread.
//! `std::sync::Barrier` would also work, but we need barriers
//! created dynamically for subgroup communicators, a barrier that hands
//! back the generation for debugging, and a watchdog deadline so a
//! deadlocked collective fails with a diagnosis instead of hanging CI
//! forever.
//!
//! **Wake rule** (shared with `rma` and `file`): decide under the lock,
//! wake after it, one wake per waiter that is unblocked. The last
//! arriver publishes the next generation through an atomic, drops the
//! mutex, and only then unparks the parties of the generation it closed,
//! each exactly once. A woken party reads the atomic and returns: it
//! never takes the mutex again, so a release is not followed by a
//! convoy of woken threads queueing on the lock the releaser just held.
//! A party checks the generation before every park, so a wake that
//! lands first, or a stray one (park tokens are shared with std's
//! channels), costs one loop turn and nothing else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::lock_ok;

/// A reusable N-party barrier.
///
/// Every write a party made before `wait` is visible to every party
/// after `wait` returns: arrivals are ordered by the internal mutex,
/// and the last arriver publishes the generation with release ordering
/// that the parked parties read with acquire ordering.
#[derive(Debug)]
pub struct Barrier {
    n: usize,
    /// Parties arrived in the current generation.
    arrived: Mutex<usize>,
    /// Number of generations completed so far.
    generation: AtomicU64,
    /// The parked parties of generation `g`, in `parked[g % 2]`, each
    /// with room for `n - 1` threads from the start. A list is written
    /// again only in generation `g + 2`, which cannot open before the
    /// releaser of `g` — who empties the list — arrives in `g + 1`.
    parked: [Mutex<Vec<Thread>>; 2],
    /// Watchdog deadline per `wait` call; `None` waits forever.
    timeout: Option<Duration>,
}

impl Barrier {
    /// Create a barrier for `n` parties with no watchdog.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_timeout(n, None)
    }

    /// Create a barrier for `n` parties; a party that waits longer than
    /// `timeout` panics with a named-rank diagnosis.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn with_timeout(n: usize, timeout: Option<Duration>) -> Self {
        assert!(n > 0, "barrier needs at least one party");
        Self {
            n,
            arrived: Mutex::new(0),
            generation: AtomicU64::new(0),
            parked: [Mutex::new(Vec::with_capacity(n - 1)), Mutex::new(Vec::with_capacity(n - 1))],
            timeout,
        }
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        self.n
    }

    /// Block until all `n` parties have called `wait`; returns the
    /// generation index that just completed (starting at 0).
    ///
    /// # Panics
    /// Panics with a deadlock diagnosis if the barrier's watchdog
    /// timeout elapses before all parties arrive.
    pub fn wait(&self) -> u64 {
        let mut arrived = lock_ok(&self.arrived);
        // Stable while the lock is held: only the last arriver, under
        // the lock, moves it.
        let gen = self.generation.load(Ordering::Relaxed);
        let parked = &self.parked[(gen % 2) as usize];
        *arrived += 1;
        if *arrived < self.n {
            lock_ok(parked).push(std::thread::current());
            drop(arrived);
            self.park_until_released(gen);
            return gen;
        }
        *arrived = 0;
        self.generation.store(gen + 1, Ordering::Release);
        drop(arrived);
        // The list's own lock, uncontended: generation `gen + 1` parks
        // on the other list.
        for t in lock_ok(parked).drain(..) {
            t.unpark();
        }
        gen
    }

    /// Park until generation `gen` is closed, or panic with the
    /// watchdog's diagnosis once its deadline passes.
    fn park_until_released(&self, gen: u64) {
        let released = || self.generation.load(Ordering::Acquire) != gen;
        let Some(timeout) = self.timeout else {
            while !released() {
                std::thread::park();
            }
            return;
        };
        let deadline = Instant::now() + timeout;
        while !released() {
            let now = Instant::now();
            if now < deadline {
                std::thread::park_timeout(deadline - now);
                continue;
            }
            // Only a party that timed out takes the lock again, to read
            // the count for its diagnosis.
            let arrived = *lock_ok(&self.arrived);
            if released() {
                return;
            }
            panic!(
                "watchdog: {} stuck in barrier for {:?} ({}/{} parties arrived, generation {})",
                std::thread::current().name().unwrap_or("<unnamed thread>"),
                timeout,
                arrived,
                self.n,
                gen,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_party_never_blocks() {
        let b = Barrier::new(1);
        assert_eq!(b.wait(), 0);
        assert_eq!(b.wait(), 1);
    }

    #[test]
    fn all_parties_see_prior_writes() {
        let n = 8;
        let b = Arc::new(Barrier::new(n));
        let counter = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..n {
                let b = Arc::clone(&b);
                let c = Arc::clone(&counter);
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                    b.wait();
                    // every increment happened-before the barrier exit
                    assert_eq!(c.load(Ordering::Relaxed), n);
                });
            }
        });
    }

    #[test]
    fn reusable_many_generations() {
        let n = 4;
        let rounds = 200;
        let b = Arc::new(Barrier::new(n));
        let shared = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..n {
                let b = Arc::clone(&b);
                let sh = Arc::clone(&shared);
                s.spawn(move || {
                    for r in 0..rounds {
                        sh.fetch_add(1, Ordering::Relaxed);
                        let gen = b.wait();
                        assert_eq!(gen, r as u64 * 2);
                        assert_eq!(sh.load(Ordering::Relaxed), (r + 1) * n);
                        let gen = b.wait(); // second barrier guards the read phase
                        assert_eq!(gen, r as u64 * 2 + 1);
                    }
                });
            }
        });
    }

    #[test]
    fn timed_barrier_still_completes() {
        let n = 4;
        let b = Arc::new(Barrier::with_timeout(n, Some(Duration::from_secs(30))));
        std::thread::scope(|s| {
            for _ in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    assert_eq!(b.wait(), 0);
                });
            }
        });
    }

    #[test]
    fn watchdog_fires_on_missing_party() {
        let b = Barrier::with_timeout(2, Some(Duration::from_millis(50)));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()))
            .expect_err("lone party must time out");
        let msg = err.downcast_ref::<String>().expect("panic carries a String");
        assert!(msg.contains("watchdog"), "unexpected message: {msg}");
        assert!(msg.contains("1/2 parties"), "unexpected message: {msg}");
    }

    /// Park tokens are shared with std's channels and anyone holding a
    /// `Thread`, so a party may be unparked before its generation
    /// closes: it must go back to sleep, not leave the barrier.
    #[test]
    fn stray_unparks_do_not_release_a_waiter() {
        let b = Barrier::with_timeout(2, Some(Duration::from_secs(20)));
        let left = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let gen = b.wait();
                left.store(true, Ordering::SeqCst);
                gen
            });
            for _ in 0..50 {
                waiter.thread().unpark();
                std::thread::sleep(Duration::from_millis(1));
                assert!(!left.load(Ordering::SeqCst), "a stray unpark released the waiter");
            }
            assert_eq!(b.wait(), 0);
            assert_eq!(waiter.join().unwrap(), 0);
        });
        assert!(left.load(Ordering::SeqCst));
        // The tokens left over do not disturb the next generation.
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(b.wait(), 1));
            assert_eq!(b.wait(), 1);
        });
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_panics() {
        Barrier::new(0);
    }
}
