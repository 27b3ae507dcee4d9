//! Seeded schedule perturbation — a loom-lite for the thread runtime.
//!
//! Real-thread executions of the pipeline explore only the interleavings
//! the OS scheduler happens to produce, which on an idle CI machine is a
//! narrow, highly repetitive set. A [`Perturber`] widens that set: every
//! traced synchronization boundary (RMA put, post/start/complete/wait,
//! barrier, collective entry, I/O worker dispatch) calls
//! [`Perturber::point`], which draws
//! from a seeded SplitMix64 stream and either proceeds immediately,
//! yields the thread, spins, or sleeps for a few microseconds. Different
//! seeds push the ranks through different interleavings of the same
//! schedule; `tapioca-check` then verifies the protocol invariants on
//! the trace of each one.
//!
//! The stream is seeded, not replayable: the *choice at each global
//! perturbation point* is a pure function of `(seed, point index)`, but
//! the assignment of indices to threads depends on the interleaving
//! being perturbed. That is the useful property — a seed set gives a
//! diverse, loggable family of schedules, and a failing seed stays
//! worth rerunning because it keeps sampling the same neighborhood.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64 step (same generator `tapioca-workloads` uses for data).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Injects randomized yields/delays at the runtime's synchronization
/// boundaries. Cheap to share (`Arc`); one per world.
#[derive(Debug)]
pub struct Perturber {
    seed: u64,
    max_delay_us: u64,
    counter: AtomicU64,
}

impl Perturber {
    /// A perturber with the default delay ceiling (50 us).
    pub fn new(seed: u64) -> Arc<Perturber> {
        Self::with_max_delay(seed, 50)
    }

    /// A perturber whose sleeps are bounded by `max_delay_us`
    /// microseconds (0 disables sleeping; yields and spins remain).
    pub fn with_max_delay(seed: u64, max_delay_us: u64) -> Arc<Perturber> {
        Arc::new(Perturber { seed, max_delay_us, counter: AtomicU64::new(0) })
    }

    /// The seed this perturber draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of perturbation points hit so far.
    pub fn points_fired(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// One perturbation point: proceed, yield, spin, or sleep — chosen
    /// by the seeded stream.
    pub fn point(&self) {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.seed ^ n.wrapping_mul(0xD129_0B26_27D6_9E4B));
        match h & 3 {
            0 => {}
            1 => std::thread::yield_now(),
            2 => {
                for _ in 0..((h >> 8) & 0x3F) {
                    std::hint::spin_loop();
                }
            }
            _ => {
                if self.max_delay_us > 0 {
                    std::thread::sleep(Duration::from_micros((h >> 32) % self.max_delay_us + 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_advance_the_counter() {
        let p = Perturber::with_max_delay(42, 0);
        assert_eq!(p.points_fired(), 0);
        for _ in 0..100 {
            p.point();
        }
        assert_eq!(p.points_fired(), 100);
        assert_eq!(p.seed(), 42);
    }

    #[test]
    fn stream_depends_on_seed() {
        // Not a behavioral guarantee, just a sanity check that the mix
        // actually varies with the seed.
        let a: Vec<u64> = (0..16).map(|n| splitmix64(7u64 ^ n)).collect();
        let b: Vec<u64> = (0..16).map(|n| splitmix64(8u64 ^ n)).collect();
        assert_ne!(a, b);
    }
}
