//! Library configuration.

use crate::error::{Result, TapiocaError};
use crate::placement::PlacementStrategy;
use tapioca_mpi::{FaultPlan, IoPolicy};

#[cfg(feature = "trace")]
use std::sync::Arc;
#[cfg(feature = "trace")]
use tapioca_trace::Tracer;

/// Configuration of a TAPIOCA instance.
///
/// The paper's tuned values: Mira — 16 aggregators per Pset with 16 MB
/// buffers (32/32 MB for the microbenchmark); Theta — 48-384 aggregators
/// with the buffer sized to the Lustre stripe (Table I: 1:1 is best).
///
/// Prefer [`TapiocaConfig::builder`] over struct literals: the builder
/// validates on [`ConfigBuilder::build`] and keeps call sites stable as
/// the config surface grows (tracer, faults, I/O policy).
#[derive(Debug, Clone)]
pub struct TapiocaConfig {
    /// Number of aggregators (= partitions) for the whole operation.
    pub num_aggregators: usize,
    /// Aggregation buffer size in bytes (each aggregator allocates two).
    pub buffer_size: u64,
    /// Overlap aggregation with flushes via double buffering (the paper's
    /// pipeline). Disabling it is an ablation, not a paper mode.
    pub pipelining: bool,
    /// Aggregator election strategy.
    pub strategy: PlacementStrategy,
    /// Ignored by both executors: every chunk travels as its own put.
    /// Kept because `benchmark/src/workloads.rs` sets it; goes with
    /// ROADMAP item 1.
    pub coalescing: bool,
    /// Deterministic fault schedule consumed by both executors. `None`
    /// (the default) injects nothing; recovery machinery stays off the
    /// hot path entirely.
    pub faults: Option<FaultPlan>,
    /// Retry and backoff policy of the aggregators' writes.
    pub io_policy: IoPolicy,
    /// Event recorder for this collective. `None` (the default) records
    /// nothing: the only cost left on the hot path is one `Option` check
    /// per instrumented operation. Both executors — the thread-mode
    /// pipeline and the simulator — emit into the same tracer schema,
    /// which is what makes their traces comparable.
    #[cfg(feature = "trace")]
    pub tracer: Option<Arc<Tracer>>,
}

impl PartialEq for TapiocaConfig {
    fn eq(&self, other: &Self) -> bool {
        #[cfg(feature = "trace")]
        let tracer_eq = match (&self.tracer, &other.tracer) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        #[cfg(not(feature = "trace"))]
        let tracer_eq = true;
        self.num_aggregators == other.num_aggregators
            && self.buffer_size == other.buffer_size
            && self.pipelining == other.pipelining
            && self.coalescing == other.coalescing
            && self.strategy == other.strategy
            && self.faults == other.faults
            && self.io_policy == other.io_policy
            && tracer_eq
    }
}

impl Default for TapiocaConfig {
    fn default() -> Self {
        Self {
            num_aggregators: 16,
            buffer_size: 16 * 1024 * 1024,
            pipelining: true,
            coalescing: false,
            strategy: PlacementStrategy::TopologyAware,
            faults: None,
            io_policy: IoPolicy::default(),
            #[cfg(feature = "trace")]
            tracer: None,
        }
    }
}

impl TapiocaConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder { cfg: TapiocaConfig::default() }
    }

    /// Validate invariants; called by `init` and the simulator drivers.
    pub fn validate(&self) -> Result<()> {
        if self.num_aggregators == 0 {
            return Err(TapiocaError::InvalidConfig("need at least one aggregator".into()));
        }
        if self.buffer_size == 0 {
            return Err(TapiocaError::InvalidConfig("buffer size must be positive".into()));
        }
        if let Some(plan) = &self.faults {
            plan.validate().map_err(TapiocaError::InvalidConfig)?;
            // Cross-field bound: a schedule never produces more
            // partitions than aggregators, so a fault targeting
            // partition >= num_aggregators can never fire on any
            // workload run with this config.
            for spec in &plan.specs {
                let target = match *spec {
                    tapioca_mpi::FaultSpec::AggregatorCrash { partition, .. }
                    | tapioca_mpi::FaultSpec::FlushStall { partition, .. } => Some(partition),
                    tapioca_mpi::FaultSpec::FlushSlowdown { partition, .. } => partition,
                    _ => None,
                };
                if let Some(p) = target {
                    if p as usize >= self.num_aggregators {
                        return Err(TapiocaError::InvalidConfig(format!(
                            "fault targets partition {p} but only {} aggregators \
                             (= max partitions) are configured",
                            self.num_aggregators
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`TapiocaConfig`]; validates on [`ConfigBuilder::build`].
///
/// ```
/// use tapioca::config::TapiocaConfig;
/// let cfg = TapiocaConfig::builder()
///     .aggregators(8)
///     .buffer_mib(16)
///     .pipelining(true)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.num_aggregators, 8);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    cfg: TapiocaConfig,
}

impl ConfigBuilder {
    /// Number of aggregators (= partitions).
    #[must_use]
    pub fn aggregators(mut self, n: usize) -> Self {
        self.cfg.num_aggregators = n;
        self
    }

    /// Aggregation buffer size in bytes.
    #[must_use]
    pub fn buffer_bytes(mut self, bytes: u64) -> Self {
        self.cfg.buffer_size = bytes;
        self
    }

    /// Aggregation buffer size in MiB.
    #[must_use]
    pub fn buffer_mib(mut self, mib: u64) -> Self {
        self.cfg.buffer_size = mib * 1024 * 1024;
        self
    }

    /// Enable/disable the double-buffered flush pipeline.
    #[must_use]
    pub fn pipelining(mut self, on: bool) -> Self {
        self.cfg.pipelining = on;
        self
    }

    /// Aggregator election strategy.
    #[must_use]
    pub fn strategy(mut self, s: PlacementStrategy) -> Self {
        self.cfg.strategy = s;
        self
    }

    /// Install a deterministic fault schedule.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Retry and backoff policy of the aggregators' writes.
    #[must_use]
    pub fn io_policy(mut self, policy: IoPolicy) -> Self {
        self.cfg.io_policy = policy;
        self
    }

    /// Install an event tracer.
    #[cfg(feature = "trace")]
    #[must_use]
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.cfg.tracer = Some(tracer);
        self
    }

    /// Replace the tunable dimensions (aggregators, buffer, strategy,
    /// pipelining) with the result of the cost-model-guided search over
    /// the declared workload, keeping the builder's other fields
    /// (faults, I/O policy, tracer) intact. See [`crate::autotune`].
    ///
    /// # Errors
    /// Propagates tuner errors (storage/profile mismatch, simulator
    /// failures).
    pub fn autotune(
        mut self,
        profile: &tapioca_topology::MachineProfile,
        storage: &crate::sim_exec::StorageConfig,
        spec: &crate::sim_exec::CollectiveSpec,
    ) -> Result<Self> {
        let outcome = crate::autotune::autotune_from(profile, storage, spec, &self.cfg)?;
        self.cfg = outcome.best;
        Ok(self)
    }

    /// Statically analyze the config against a concrete workload:
    /// derive the symbolic schedule (see [`crate::analyze`]) and run
    /// its checks, erroring on the first violation. This rejects ranks
    /// writing the same bytes, unreachable faults and a double buffer
    /// over the DRAM capacity before any executor runs. Overlapping
    /// reads, and one rank's own overlapping writes, are legal.
    ///
    /// # Errors
    /// [`TapiocaError::InvalidConfig`] carrying the rendered
    /// [`crate::analyze::StaticViolation`] witness.
    pub fn validate_static(
        self,
        profile: &tapioca_topology::MachineProfile,
        spec: &crate::sim_exec::CollectiveSpec,
    ) -> Result<Self> {
        let sym = crate::analyze::derive_symbolic(profile, spec, &self.cfg)?;
        let violations = crate::analyze::analyze(&sym, &self.cfg);
        if let Some(v) = violations.first() {
            return Err(TapiocaError::InvalidConfig(format!("static analysis: {v}")));
        }
        Ok(self)
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<TapiocaConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapioca_mpi::FaultSpec;

    #[test]
    fn default_matches_mira_tuning() {
        let c = TapiocaConfig::default();
        assert_eq!(c.num_aggregators, 16);
        assert_eq!(c.buffer_size, 16 * 1024 * 1024);
        assert!(c.pipelining);
        assert!(c.faults.is_none());
        c.validate().unwrap();
    }

    #[test]
    fn zero_aggregators_invalid() {
        let err = TapiocaConfig { num_aggregators: 0, ..Default::default() }
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("at least one aggregator"));
        let err =
            TapiocaConfig { buffer_size: 0, ..Default::default() }.validate().unwrap_err();
        assert!(err.to_string().contains("buffer size"));
    }

    #[test]
    fn builder_builds_and_validates() {
        let cfg = TapiocaConfig::builder()
            .aggregators(4)
            .buffer_bytes(4096)
            .pipelining(false)
            .strategy(PlacementStrategy::RankOrder)
            .faults(FaultPlan::seeded(7))
            .build()
            .unwrap();
        assert_eq!(cfg.num_aggregators, 4);
        assert_eq!(cfg.buffer_size, 4096);
        assert!(!cfg.pipelining);
        assert_eq!(cfg.faults.as_ref().unwrap().seed, 7);

        assert!(TapiocaConfig::builder().aggregators(0).build().is_err());
        let bad = FaultPlan::seeded(0)
            .with(FaultSpec::TransientFlushError { probability: 2.0 });
        assert!(TapiocaConfig::builder().faults(bad).build().is_err());
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(TapiocaConfig::builder().build().unwrap(), TapiocaConfig::default());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn configs_compare_tracers_by_identity() {
        let t = Tracer::new(4);
        let a = TapiocaConfig { tracer: Some(Arc::clone(&t)), ..Default::default() };
        let b = TapiocaConfig { tracer: Some(Arc::clone(&t)), ..Default::default() };
        let c = TapiocaConfig { tracer: Some(Tracer::new(4)), ..Default::default() };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, TapiocaConfig::default());
    }
}
