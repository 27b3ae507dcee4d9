//! Deterministic fault injection for both executors.
//!
//! A [`FaultPlan`] is a *seeded, declarative* description of the faults a
//! run should experience: an aggregator crash at a given round, transient
//! flush errors with some probability, file-worker slowdowns or stalls,
//! and fabric-wide link degradation. The plan is carried on the library
//! configuration and consulted *purely* — every rank (and the simulator)
//! derives the identical fault schedule from `(seed, partition, round,
//! segment, attempt)`, so recovery decisions are collectively computable
//! with zero extra messaging and recovery can never deadlock the
//! collectives.
//!
//! The thread runtime consumes the plan in the aggregator's own writes
//! (bounded retry with exponential backoff under an [`IoPolicy`]) and in
//! the aggregation pipeline (re-election after a crash, graceful degradation when the
//! retry budget is exhausted). The simulator consumes the *same* plan to
//! perturb link rates and completion events, so recovery cost is
//! measurable with matching semantics.

use std::io::ErrorKind;
use std::time::Duration;

/// Retry policy of a positioned write
/// ([`crate::SharedFile::write_retrying`]): the aggregator applies it to
/// its own round writes, on its own thread, so a retry delays that
/// aggregator's next round and nothing else. A write that never
/// succeeds ends once the budget is spent; a [`FaultPlan`] stall is
/// instead detected before its round runs, and the partition degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoPolicy {
    /// Retries after the first failed attempt (so a write gets
    /// `max_retries + 1` attempts in total).
    pub max_retries: u32,
    /// Backoff before retry `a` is `base_backoff * 2^a` (capped at
    /// `2^10`).
    pub base_backoff: Duration,
}

impl Default for IoPolicy {
    fn default() -> Self {
        Self { max_retries: 3, base_backoff: Duration::from_millis(1) }
    }
}

/// Backoff before retry attempt `attempt` (0-based) under `policy`.
pub fn backoff(policy: &IoPolicy, attempt: u32) -> Duration {
    policy.base_backoff.saturating_mul(1u32 << attempt.min(10))
}

/// One declared fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// The elected aggregator of `partition` fails at round `round`:
    /// its round-`round` fill is lost and a standby is re-elected
    /// (ignored for single-member partitions, which have no standby).
    AggregatorCrash { partition: u32, round: u32 },
    /// Each flush attempt fails independently with `probability`
    /// (seeded, so both executors see the same attempt outcomes).
    TransientFlushError { probability: f64 },
    /// Every flush in `partition` (or everywhere, `None`) takes `delay`
    /// longer per attempt.
    FlushSlowdown { partition: Option<u32>, delay: Duration },
    /// The flushes of `(partition, round)` never succeed — the
    /// retry budget is guaranteed to exhaust and the partition
    /// degrades to direct per-rank writes.
    FlushStall { partition: u32, round: u32 },
    /// Scale all fabric link capacities by `factor` (simulation mode
    /// only; `0 < factor <= 1`).
    LinkDegrade { factor: f64 },
}

/// Deterministic per-flush fault resolution: how many leading attempts
/// fail and how much injected latency each attempt carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultHint {
    /// Attempts `0..fail_attempts` fail; `u32::MAX` means the operation
    /// never succeeds (a stall).
    pub fail_attempts: u32,
    /// Injected latency per attempt.
    pub delay: Duration,
}

impl FaultHint {
    /// Whether this fault exhausts the retry budget of `policy`.
    pub fn exceeds(&self, policy: &IoPolicy) -> bool {
        self.fail_attempts > policy.max_retries
    }

    /// Extra latency the retry loop adds before the write lands, for a
    /// *within-budget* fault: per-attempt delays plus the backoffs
    /// between attempts. The simulator charges exactly this, so both
    /// executors agree on recovery cost.
    pub fn penalty(&self, policy: &IoPolicy) -> Duration {
        let fails = self.fail_attempts.min(policy.max_retries);
        let mut t = Duration::ZERO;
        for a in 0..=fails {
            t += self.delay;
            if a < fails {
                t += backoff(policy, a);
            }
        }
        t
    }
}

/// A seeded, declarative fault schedule (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the per-attempt coin flips of probabilistic specs.
    pub seed: u64,
    /// The declared faults; independent specs compose.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults (add specs with
    /// [`FaultPlan::with`]).
    pub fn seeded(seed: u64) -> Self {
        Self { seed, specs: Vec::new() }
    }

    /// Add one spec (builder-style).
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// The crash round of `partition`'s aggregator, if one is declared.
    pub fn crash_at(&self, partition: u32) -> Option<u32> {
        self.specs.iter().find_map(|s| match s {
            FaultSpec::AggregatorCrash { partition: p, round } if *p == partition => Some(*round),
            _ => None,
        })
    }

    /// Resolve the fault affecting flush `segment` of `(partition,
    /// round)`; `None` when the flush is clean. Pure: every rank and the
    /// simulator compute the identical answer.
    pub fn flush_fault(&self, partition: u32, round: u32, segment: u32) -> Option<FaultHint> {
        let mut hint = FaultHint::default();
        for s in &self.specs {
            match s {
                FaultSpec::TransientFlushError { probability } => {
                    // Consecutive leading attempt failures; a run of 64
                    // only happens when probability ~= 1, which we treat
                    // as a permanent failure.
                    let mut fails = 0u32;
                    while fails < 64
                        && unit_hash(self.seed, partition, round, segment, fails) < *probability
                    {
                        fails += 1;
                    }
                    if fails == 64 {
                        fails = u32::MAX;
                    }
                    hint.fail_attempts = hint.fail_attempts.max(fails);
                }
                FaultSpec::FlushSlowdown { partition: p, delay }
                    if p.is_none() || *p == Some(partition) =>
                {
                    hint.delay += *delay;
                }
                FaultSpec::FlushStall { partition: p, round: r }
                    if *p == partition && *r == round =>
                {
                    hint.fail_attempts = u32::MAX;
                }
                _ => {}
            }
        }
        (hint != FaultHint::default()).then_some(hint)
    }

    /// Combined fabric capacity factor of all `LinkDegrade` specs.
    pub fn link_degrade(&self) -> Option<f64> {
        let mut factor = 1.0;
        let mut any = false;
        for s in &self.specs {
            if let FaultSpec::LinkDegrade { factor: f } = s {
                factor *= f;
                any = true;
            }
        }
        any.then_some(factor)
    }

    /// Validate spec parameters (probabilities in `[0, 1]`, degrade
    /// factors in `(0, 1]`).
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.specs {
            match s {
                FaultSpec::TransientFlushError { probability }
                    if !(0.0..=1.0).contains(probability) =>
                {
                    return Err(format!("flush error probability {probability} not in [0, 1]"));
                }
                FaultSpec::LinkDegrade { factor } if !(*factor > 0.0 && *factor <= 1.0) => {
                    return Err(format!("link degrade factor {factor} not in (0, 1]"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Parse a compact CLI spec: comma-separated `key=value` items —
    /// `seed=N`, `crash=P@R` (partition P, round R), `flaky=PROB`,
    /// `slow=MS` or `slow=MS@P`, `stall=P@R`, `degrade=FACTOR`.
    ///
    /// Example: `seed=7,crash=0@1,flaky=0.25`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for item in spec.split(',').filter(|s| !s.is_empty()) {
            let (key, val) = item
                .split_once('=')
                .ok_or_else(|| format!("fault item `{item}` is not key=value"))?;
            let at = |v: &str| -> Result<(u32, u32), String> {
                let (a, b) =
                    v.split_once('@').ok_or_else(|| format!("`{v}` is not P@R"))?;
                Ok((
                    a.parse().map_err(|_| format!("bad partition `{a}`"))?,
                    b.parse().map_err(|_| format!("bad round `{b}`"))?,
                ))
            };
            match key {
                "seed" => plan.seed = val.parse().map_err(|_| format!("bad seed `{val}`"))?,
                "crash" => {
                    let (partition, round) = at(val)?;
                    plan.specs.push(FaultSpec::AggregatorCrash { partition, round });
                }
                "flaky" => {
                    let probability =
                        val.parse().map_err(|_| format!("bad probability `{val}`"))?;
                    plan.specs.push(FaultSpec::TransientFlushError { probability });
                }
                "slow" => {
                    let (ms, p) = match val.split_once('@') {
                        Some((ms, p)) => (
                            ms.parse().map_err(|_| format!("bad delay `{ms}`"))?,
                            Some(p.parse().map_err(|_| format!("bad partition `{p}`"))?),
                        ),
                        None => (val.parse().map_err(|_| format!("bad delay `{val}`"))?, None),
                    };
                    plan.specs.push(FaultSpec::FlushSlowdown {
                        partition: p,
                        delay: Duration::from_millis(ms),
                    });
                }
                "stall" => {
                    let (partition, round) = at(val)?;
                    plan.specs.push(FaultSpec::FlushStall { partition, round });
                }
                "degrade" => {
                    let factor = val.parse().map_err(|_| format!("bad factor `{val}`"))?;
                    plan.specs.push(FaultSpec::LinkDegrade { factor });
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

/// A failed file operation, reported (not panicked) so the caller can
/// recover or degrade. Carries the source error's kind and
/// message rather than the `std::io::Error` itself so notifications can
/// cross the worker boundary by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The retry budget is exhausted; `attempts` were made.
    Exhausted { op: &'static str, attempts: u32, kind: ErrorKind, msg: String },
    /// The file's worker thread is gone (file closed mid-operation).
    Disconnected { op: &'static str },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Exhausted { op, attempts, kind, msg } => {
                write!(f, "{op} failed after {attempts} attempts ({kind:?}: {msg})")
            }
            IoError::Disconnected { op } => write!(f, "{op}: I/O worker disconnected"),
        }
    }
}

impl std::error::Error for IoError {}

/// SplitMix64 finalizer over the fault coordinates, mapped to `[0, 1)`.
fn unit_hash(seed: u64, partition: u32, round: u32, segment: u32, attempt: u32) -> f64 {
    let mut z = seed
        .wrapping_add((partition as u64) << 48)
        .wrapping_add((round as u64) << 32)
        .wrapping_add((segment as u64) << 16)
        .wrapping_add(attempt as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_fault_is_deterministic() {
        let plan = FaultPlan::seeded(42).with(FaultSpec::TransientFlushError { probability: 0.5 });
        for p in 0..4 {
            for r in 0..4 {
                assert_eq!(plan.flush_fault(p, r, 0), plan.flush_fault(p, r, 0));
            }
        }
    }

    #[test]
    fn probability_extremes() {
        let never = FaultPlan::seeded(1).with(FaultSpec::TransientFlushError { probability: 0.0 });
        assert_eq!(never.flush_fault(0, 0, 0), None);
        let always =
            FaultPlan::seeded(1).with(FaultSpec::TransientFlushError { probability: 1.0 });
        let hint = always.flush_fault(0, 0, 0).expect("always faulty");
        assert!(hint.exceeds(&IoPolicy::default()));
    }

    #[test]
    fn stall_exhausts_any_budget() {
        let plan = FaultPlan::seeded(0).with(FaultSpec::FlushStall { partition: 2, round: 1 });
        let hint = plan.flush_fault(2, 1, 0).expect("stalled");
        assert_eq!(hint.fail_attempts, u32::MAX);
        assert!(hint.exceeds(&IoPolicy { max_retries: 1000, ..Default::default() }));
        assert_eq!(plan.flush_fault(2, 0, 0), None);
        assert_eq!(plan.flush_fault(1, 1, 0), None);
    }

    #[test]
    fn penalty_charges_delays_and_backoffs() {
        let policy = IoPolicy { max_retries: 3, base_backoff: Duration::from_millis(2) };
        let hint = FaultHint { fail_attempts: 2, delay: Duration::from_millis(5) };
        // 3 attempts x 5ms delay + backoffs 2ms + 4ms
        assert_eq!(hint.penalty(&policy), Duration::from_millis(15 + 6));
    }

    #[test]
    fn parse_roundtrip() {
        let plan = FaultPlan::parse("seed=7,crash=0@1,flaky=0.25,slow=3@1,degrade=0.5").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.crash_at(0), Some(1));
        assert_eq!(plan.crash_at(1), None);
        assert_eq!(plan.link_degrade(), Some(0.5));
        assert!(plan.specs.contains(&FaultSpec::FlushSlowdown {
            partition: Some(1),
            delay: Duration::from_millis(3),
        }));
        assert!(FaultPlan::parse("flaky=2.0").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("crash=zero@1").is_err());
    }

    #[test]
    fn link_degrade_composes() {
        let plan = FaultPlan::seeded(0)
            .with(FaultSpec::LinkDegrade { factor: 0.5 })
            .with(FaultSpec::LinkDegrade { factor: 0.5 });
        assert_eq!(plan.link_degrade(), Some(0.25));
        assert_eq!(FaultPlan::default().link_degrade(), None);
    }

    #[test]
    fn slowdowns_accumulate_and_scope() {
        let plan = FaultPlan::seeded(0)
            .with(FaultSpec::FlushSlowdown { partition: None, delay: Duration::from_millis(1) })
            .with(FaultSpec::FlushSlowdown {
                partition: Some(3),
                delay: Duration::from_millis(2),
            });
        assert_eq!(plan.flush_fault(3, 0, 0).unwrap().delay, Duration::from_millis(3));
        assert_eq!(plan.flush_fault(1, 0, 0).unwrap().delay, Duration::from_millis(1));
    }
}
