//! Cost-model-guided configuration autotuning.
//!
//! The paper notes that "the number of aggregators or the buffer size
//! needed in collective I/O remains still an open topic" (its ref. 19)
//! and reports hand-tuned values per experiment (16-32 per Pset on
//! Mira, 48-384 on Theta, buffer = stripe). This subsystem turns that
//! open topic into an offline procedure over the declared workload —
//! exactly what `TAPIOCA_Init`'s information makes possible:
//!
//! * [`rule_based`] — the paper's own hand-tuning, generalized, as the
//!   seed and the regression anchor;
//! * [`model`] — an analytic cost model ω(A) whose aggregation term is
//!   the election's own `C1 + C2` vector, read once per file group, so
//!   scoring an entire configuration grid is arithmetic;
//! * [`search`] — a grid search over aggregator count × buffer size ×
//!   placement strategy × pipelining × tier assignment that prunes with
//!   ω and confirms only a short-list in the simulator, in parallel;
//! * [`report`] — work accounting (the ≥4× fewer-sims acceptance
//!   metric).

pub mod model;
pub mod report;
pub mod search;

pub use model::{Candidate, CostModel, TierAssignment};
pub use report::TuneReport;
pub use search::{autotune, autotune_from, SearchSpace, TuneOutcome};

use tapioca_topology::{MachineProfile, StorageProfile};

use crate::config::TapiocaConfig;
use crate::error::{Result, TapiocaError};
use crate::sim_exec::{CollectiveSpec, StorageConfig};

/// Rule-based tuning: the paper's own settings, generalized.
///
/// * Lustre: buffer = stripe size (Table I's 1:1), aggregators = a small
///   multiple of the stripe count (the paper uses 1-8 per OST; 2 is the
///   robust middle of our `ablation_aggregators` sweep), capped at the
///   rank count.
/// * GPFS: buffer = 16 MB (the validated default), aggregators = 16 per
///   Pset group.
///
/// `group_ranks` is the number of ranks writing one file (a Pset's worth
/// under subfiling). With multiple groups, pass the **smallest** group's
/// size — every group elects the same number of aggregators, so the
/// count must be valid for all of them.
///
/// # Errors
/// [`TapiocaError::InvalidConfig`] when the storage config kind does not
/// match the machine profile.
pub fn rule_based(
    profile: &MachineProfile,
    storage: &StorageConfig,
    group_ranks: usize,
) -> Result<TapiocaConfig> {
    match (&profile.storage, storage) {
        (StorageProfile::Lustre { .. }, StorageConfig::Lustre(tun)) => Ok(TapiocaConfig {
            num_aggregators: (2 * tun.stripe_count).min(group_ranks).max(1),
            buffer_size: tun.stripe_size,
            ..Default::default()
        }),
        (StorageProfile::Gpfs { .. }, StorageConfig::Gpfs(_)) => Ok(TapiocaConfig {
            num_aggregators: 16.min(group_ranks).max(1),
            buffer_size: 16 * 1024 * 1024,
            ..Default::default()
        }),
        _ => Err(TapiocaError::InvalidConfig(
            "storage config kind does not match the machine profile".into(),
        )),
    }
}

/// The aggregator-count cap a spec imposes: the smallest group's rank
/// count. (Every group elects `num_aggregators` aggregators from its own
/// members, so a count valid for the first group only is a bug — the
/// cap must hold for *all* groups.)
fn min_group(spec: &CollectiveSpec) -> usize {
    spec.groups.iter().map(|g| g.ranks.len()).min().unwrap_or(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapioca_pfs::{GpfsTunables, LustreTunables};
    use tapioca_topology::{mira_profile, theta_profile, MIB};

    #[test]
    fn rule_based_matches_paper_tuning() {
        let theta = theta_profile(512, 16);
        let cfg = rule_based(
            &theta,
            &StorageConfig::Lustre(LustreTunables::theta_optimized()),
            8192,
        )
        .unwrap();
        assert_eq!(cfg.buffer_size, 8 * MIB, "buffer = stripe (Table I)");
        assert_eq!(cfg.num_aggregators, 96, "2 per OST");

        let mira = mira_profile(512, 16);
        let cfg =
            rule_based(&mira, &StorageConfig::Gpfs(GpfsTunables::mira_optimized()), 2048).unwrap();
        assert_eq!(cfg.num_aggregators, 16);
        assert_eq!(cfg.buffer_size, 16 * MIB);
    }

    #[test]
    fn rule_based_caps_at_group_size() {
        let theta = theta_profile(32, 4);
        let cfg = rule_based(
            &theta,
            &StorageConfig::Lustre(LustreTunables::theta_optimized()),
            10,
        )
        .unwrap();
        assert_eq!(cfg.num_aggregators, 10);
    }

    #[test]
    fn mismatched_storage_rejected() {
        let mira = mira_profile(128, 4);
        let err = rule_based(&mira, &StorageConfig::Lustre(LustreTunables::theta_optimized()), 100)
            .unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }
}
