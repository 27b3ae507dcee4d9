//! Cost-model-guided configuration search.
//!
//! Stage 1 (*score*) enumerates the full multi-dimensional grid —
//! aggregator count × buffer size × placement strategy × pipelining ×
//! tier assignment — and scores every point with the analytic model ω
//! ([`CostModel`]), which costs arithmetic, not simulations. Stage 2
//! (*confirm*) hands the model's short-list, deduplicated by the
//! simulator-visible config hash, plus the rule-based configuration as a
//! regression anchor, to `run_tapioca_sim`, fanned out over std threads.
//!
//! Because the rule-based anchor is always confirmed, the tuned result
//! can never be slower than the paper's hand-tuning *as measured by the
//! simulator* — the invariant the golden regression suite pins.
//!
//! Everything is deterministic: candidate enumeration order is fixed,
//! ties in ω and in simulated bandwidth resolve to the earlier
//! candidate, and the thread fan-out writes results into pre-assigned
//! slots.

use std::time::Instant;

use tapioca_topology::{MachineProfile, StorageProfile};

use crate::autotune::model::{Candidate, CostModel, TierAssignment};
use crate::autotune::report::TuneReport;
use crate::autotune::{min_group, rule_based};
use crate::config::TapiocaConfig;
use crate::error::Result;
use crate::placement::PlacementStrategy;
use crate::sim_exec::{run_tapioca_sim, CollectiveSpec, StorageConfig};

/// The tuner's search space, derived from the machine, the storage
/// tunables, and *every* file group of the spec.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Aggregator-count ladder (per file group), ascending.
    pub aggregators: Vec<usize>,
    /// Buffer-size ladder, ascending, anchored on the storage granule.
    pub buffers: Vec<u64>,
    /// Election strategies worth searching (`Random`/`WorstCase` are
    /// ablations, not tuning candidates).
    pub strategies: Vec<PlacementStrategy>,
    /// Pipelining on/off.
    pub pipelining: Vec<bool>,
    /// Tier assignments (KNL tiers only exist on Lustre machines).
    pub tiers: Vec<TierAssignment>,
}

impl SearchSpace {
    /// Derive the space from the rule-based seed and the smallest file
    /// group: a candidate aggregator count must be valid for **every**
    /// group, so the ladder is capped by the minimum group size (the
    /// first-group-only derivation was a real bug — a small trailing
    /// group would have been handed more aggregators than members).
    ///
    /// # Errors
    /// Propagates [`rule_based`]'s storage/profile mismatch error.
    pub fn derive(
        profile: &MachineProfile,
        storage: &StorageConfig,
        spec: &CollectiveSpec,
    ) -> Result<SearchSpace> {
        let cap = min_group(spec);
        let seed = rule_based(profile, storage, cap)?;
        let base = seed.num_aggregators.max(4);
        let mut aggregators: Vec<usize> = [base / 4, base / 2, base, base * 2, base * 4]
            .into_iter()
            .map(|a| a.clamp(1, cap))
            .collect();
        aggregators.sort_unstable();
        aggregators.dedup();

        // Buffer ladder around the storage granule (stripe / GPFS
        // block): half, 1:1 (Table I's winner), 2x, 4x.
        let granule = match storage {
            StorageConfig::Lustre(tun) => tun.stripe_size,
            StorageConfig::Gpfs(tun) => tun.block_size,
        }
        .max(64 * 1024);
        let mut buffers: Vec<u64> = vec![granule / 2, granule, granule * 2, granule * 4];
        buffers.sort_unstable();
        buffers.dedup();

        let tiers = match profile.storage {
            // KNL memory tiers and node-local burst buffers exist on the
            // Lustre machines of the paper (Theta); BG/Q has neither.
            StorageProfile::Lustre { .. } => vec![
                TierAssignment::DramDirect,
                TierAssignment::McdramDirect,
                TierAssignment::McdramBurstBuffer,
            ],
            StorageProfile::Gpfs { .. } => vec![TierAssignment::DramDirect],
        };

        Ok(SearchSpace {
            aggregators,
            buffers,
            strategies: vec![
                PlacementStrategy::TopologyAware,
                PlacementStrategy::ShortestPathToIo,
                PlacementStrategy::RankOrder,
            ],
            pipelining: vec![true, false],
            tiers,
        })
    }

    /// Number of points in the exhaustive grid.
    pub fn grid_size(&self) -> usize {
        self.aggregators.len()
            * self.buffers.len()
            * self.strategies.len()
            * self.pipelining.len()
            * self.tiers.len()
    }

    /// Enumerate the grid in a fixed, deterministic order.
    fn candidates(&self) -> Vec<Candidate> {
        let mut out = Vec::with_capacity(self.grid_size());
        for &aggregators in &self.aggregators {
            for &buffer_size in &self.buffers {
                for &strategy in &self.strategies {
                    for &pipelining in &self.pipelining {
                        for &tier in &self.tiers {
                            out.push(Candidate {
                                aggregators,
                                buffer_size,
                                strategy,
                                pipelining,
                                tier,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Result of a full autotuning run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winning configuration (simulator-confirmed dimensions),
    /// carrying over the seed config's faults/policy/tracer.
    pub best: TapiocaConfig,
    /// The model-selected tier assignment for the winning config (the
    /// base simulator cannot confirm this dimension; `tapioca-tiers`
    /// cross-checks it).
    pub tier: TierAssignment,
    /// The rule-based configuration the search is anchored on.
    pub rule: TapiocaConfig,
    /// Simulated bandwidth of `best`, bytes/s.
    pub tuned_bandwidth: f64,
    /// Simulated bandwidth of `rule`, bytes/s.
    pub rule_bandwidth: f64,
    /// Every simulator-confirmed candidate with its bandwidth, in
    /// confirmation order (the rule-based anchor is last unless the
    /// model short-listed it already).
    pub confirmed: Vec<(TapiocaConfig, f64)>,
    /// Work accounting.
    pub report: TuneReport,
}

/// Tune with default seed config (no faults, no tracer).
///
/// # Errors
/// Propagates model construction and simulator errors.
pub fn autotune(
    profile: &MachineProfile,
    storage: &StorageConfig,
    spec: &CollectiveSpec,
) -> Result<TuneOutcome> {
    autotune_from(profile, storage, spec, &TapiocaConfig::default())
}

/// Tune, inheriting non-tuned fields (faults, I/O policy, tracer) from
/// `base` in the returned configs. The tuning simulations themselves
/// always run clean — fault injection and tracing are stripped so the
/// measured bandwidths reflect the configuration, not the fault plan.
///
/// # Errors
/// Propagates model construction and simulator errors.
pub fn autotune_from(
    profile: &MachineProfile,
    storage: &StorageConfig,
    spec: &CollectiveSpec,
    base: &TapiocaConfig,
) -> Result<TuneOutcome> {
    let space = SearchSpace::derive(profile, storage, spec)?;
    let model = CostModel::new(profile, storage, spec)?;

    // Stage 0 — static screen: discard grid points the static analyzer
    // proves illegal (double buffer over tier capacity) before spending
    // any model or simulator work on them.
    let grid = space.candidates();
    let (pruned, legal): (Vec<Candidate>, Vec<Candidate>) = grid
        .iter()
        .copied()
        .partition(|c| crate::analyze::screen_candidate(c).is_some());
    let static_pruned = pruned.len();

    // Stage 1 — score the surviving grid with ω.
    let scored: Vec<(f64, Candidate)> = legal.iter().map(|c| (model.score(c), *c)).collect();

    // Stage 2 — confirm: short-list the model's best points (dedup by
    // sim key, keeping the model-preferred tier variant of each), add
    // the rule-based anchor if it is not on it yet, and simulate in
    // parallel. The short-list budget stays well under a quarter of the
    // grid — the savings the model buys.
    let budget = (space.grid_size() / 16).clamp(4, 10);
    let mut order: Vec<usize> = (0..scored.len()).collect();
    order.sort_by(|&i, &j| scored[i].0.total_cmp(&scored[j].0).then(i.cmp(&j)));
    let mut shortlist: Vec<Candidate> = Vec::new();
    for &i in &order {
        let (score, cand) = scored[i];
        if !score.is_finite() {
            break;
        }
        if shortlist.iter().all(|c| c.sim_key() != cand.sim_key()) {
            shortlist.push(cand);
            if shortlist.len() >= budget {
                break;
            }
        }
    }
    let rule = rule_based(profile, storage, min_group(spec))?;
    let rule_cand = Candidate {
        aggregators: rule.num_aggregators,
        buffer_size: rule.buffer_size,
        strategy: rule.strategy,
        pipelining: rule.pipelining,
        tier: TierAssignment::DramDirect,
    };
    let anchor = match shortlist.iter().position(|c| c.sim_key() == rule_cand.sim_key()) {
        Some(i) => i,
        None => {
            shortlist.push(rule_cand);
            shortlist.len() - 1
        }
    };

    // Clean evaluation config: no faults, no tracer, default policy.
    let clean = TapiocaConfig {
        num_aggregators: base.num_aggregators,
        buffer_size: base.buffer_size,
        ..TapiocaConfig::default()
    };
    let confirm_start = Instant::now();
    let bandwidths = confirm_parallel(profile, storage, spec, &clean, &shortlist)?;
    let sim_wall_ns = confirm_start.elapsed().as_nanos() as u64;

    let rule_bandwidth = bandwidths[anchor];

    // Winner: max simulated bandwidth, ties to the earlier (model-
    // preferred) short-list entry.
    let mut best_i = 0usize;
    for (i, bw) in bandwidths.iter().enumerate() {
        if *bw > bandwidths[best_i] {
            best_i = i;
        }
    }
    let best_cand = shortlist[best_i];
    let report = TuneReport {
        grid_size: space.grid_size(),
        static_pruned,
        model_evals: scored.len(),
        sims_run: shortlist.len(),
        sim_wall_ns,
    };
    Ok(TuneOutcome {
        best: best_cand.to_config(base),
        tier: best_cand.tier,
        rule: TapiocaConfig {
            num_aggregators: rule.num_aggregators,
            buffer_size: rule.buffer_size,
            strategy: rule.strategy,
            pipelining: rule.pipelining,
            ..base.clone()
        },
        tuned_bandwidth: bandwidths[best_i],
        rule_bandwidth,
        confirmed: shortlist
            .iter()
            .zip(&bandwidths)
            .map(|(c, &bw)| (c.to_config(base), bw))
            .collect(),
        report,
    })
}

/// Confirm the short-list in the simulator, one std thread per chunk,
/// results written into pre-assigned slots (deterministic regardless of
/// scheduling). Sim keys are deduped by construction, so every entry is
/// one distinct simulation.
fn confirm_parallel(
    profile: &MachineProfile,
    storage: &StorageConfig,
    spec: &CollectiveSpec,
    clean: &TapiocaConfig,
    shortlist: &[Candidate],
) -> Result<Vec<f64>> {
    let eval_one = |cand: &Candidate| -> Result<f64> {
        Ok(run_tapioca_sim(profile, storage, spec, &cand.to_config(clean))?.bandwidth)
    };
    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    if shortlist.len() < 2 || threads < 2 {
        return shortlist.iter().map(eval_one).collect();
    }
    let chunk = shortlist.len().div_ceil(threads.min(shortlist.len()));
    let results: Vec<Result<Vec<f64>>> = std::thread::scope(|s| {
        let eval_one = &eval_one;
        let handles: Vec<_> = shortlist
            .chunks(chunk)
            .map(|ch| s.spawn(move || ch.iter().map(eval_one).collect::<Result<Vec<f64>>>()))
            .collect();
        handles.into_iter().map(|h| h.join().expect("tuner worker panicked")).collect()
    });
    let mut out = Vec::with_capacity(shortlist.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::WriteDecl;
    use crate::sim_exec::GroupSpec;
    use tapioca_pfs::{AccessMode, GpfsTunables, LustreTunables};
    use tapioca_topology::{mira_profile, theta_profile, MIB};

    fn theta_spec(n: usize, per: u64) -> CollectiveSpec {
        CollectiveSpec {
            groups: vec![GroupSpec {
                file: 0,
                ranks: (0..n).collect(),
                decls: (0..n as u64)
                    .map(|r| vec![WriteDecl { offset: r * per, len: per }])
                    .collect(),
            }],
            mode: AccessMode::Write,
        }
    }

    #[test]
    fn space_is_capped_by_the_smallest_group() {
        let profile = mira_profile(256, 4);
        let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
        // Two groups: 512 ranks and 12 ranks.
        let spec = CollectiveSpec {
            groups: vec![
                GroupSpec {
                    file: 0,
                    ranks: (0..512).collect(),
                    decls: (0..512u64).map(|r| vec![WriteDecl { offset: r * MIB, len: MIB }]).collect(),
                },
                GroupSpec {
                    file: 1,
                    ranks: (512..524).collect(),
                    decls: (0..12u64).map(|r| vec![WriteDecl { offset: r * MIB, len: MIB }]).collect(),
                },
            ],
            mode: AccessMode::Write,
        };
        let space = SearchSpace::derive(&profile, &storage, &spec).unwrap();
        assert!(space.aggregators.iter().all(|&a| a <= 12), "{:?}", space.aggregators);
    }

    #[test]
    fn tuned_beats_or_matches_rule_based_and_saves_sims() {
        let profile = theta_profile(64, 4);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = theta_spec(256, MIB);
        let out = autotune(&profile, &storage, &spec).unwrap();
        assert!(out.tuned_bandwidth >= out.rule_bandwidth);
        assert!(out.best.num_aggregators >= 1 && out.best.num_aggregators <= 256);
        assert!(out.report.sim_savings() >= 4.0, "{}", out.report);
        assert!(out.report.sims_run <= out.report.grid_size / 4);
    }

    /// Here ω short-lists the rule config itself, so the anchor is not
    /// the last confirmed entry; the rule bandwidth must still be its own.
    #[test]
    fn rule_bandwidth_is_the_anchors_even_mid_list() {
        let profile = theta_profile(16, 1);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = CollectiveSpec { mode: AccessMode::Read, ..theta_spec(16, 16 * MIB) };
        let out = autotune(&profile, &storage, &spec).unwrap();
        let r = &out.rule;
        let anchor = out
            .confirmed
            .iter()
            .position(|(c, _)| {
                (c.num_aggregators, c.buffer_size, c.strategy, c.pipelining)
                    == (r.num_aggregators, r.buffer_size, r.strategy, r.pipelining)
            })
            .expect("the anchor is always confirmed");
        assert!(anchor + 1 < out.confirmed.len(), "case no longer short-lists the rule config");
        assert_eq!(out.rule_bandwidth.to_bits(), out.confirmed[anchor].1.to_bits());
    }

    #[test]
    fn autotune_is_deterministic() {
        let profile = theta_profile(64, 4);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = theta_spec(128, MIB / 2);
        let a = autotune(&profile, &storage, &spec).unwrap();
        let b = autotune(&profile, &storage, &spec).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.tier, b.tier);
        assert_eq!(a.tuned_bandwidth.to_bits(), b.tuned_bandwidth.to_bits());
    }

    #[test]
    fn base_fields_are_carried_into_the_tuned_config() {
        let profile = theta_profile(16, 2);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = theta_spec(32, MIB / 4);
        let base = TapiocaConfig {
            faults: Some(crate::FaultPlan::seeded(9)),
            ..TapiocaConfig::default()
        };
        let out = autotune_from(&profile, &storage, &spec, &base).unwrap();
        assert_eq!(out.best.faults.as_ref().map(|f| f.seed), Some(9));
        // The tuning sims themselves must have run clean: a fault plan
        // in the base config cannot perturb the measured bandwidths.
        let clean = autotune(&profile, &storage, &spec).unwrap();
        assert_eq!(out.tuned_bandwidth.to_bits(), clean.tuned_bandwidth.to_bits());
    }

    #[test]
    fn single_rank_group_degenerates_gracefully() {
        let profile = theta_profile(4, 1);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let spec = theta_spec(1, MIB);
        let out = autotune(&profile, &storage, &spec).unwrap();
        assert_eq!(out.best.num_aggregators, 1, "one rank can host one aggregator");
        assert!(out.tuned_bandwidth >= out.rule_bandwidth);
    }
}
