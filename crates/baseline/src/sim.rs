//! Simulation-mode MPI I/O baseline driver.
//!
//! Executes a [`tapioca::sim_exec::CollectiveSpec`] the way plain MPI I/O
//! would: one independent collective call per declared variable
//! (sequential within a file group, because a bulk-synchronous
//! application issues them back-to-back), rank-order aggregators, single
//! buffer. Plans are executed by the very same simulator as TAPIOCA's.

use tapioca::placement::{elect_schedule, PlacementStrategy};
use tapioca::plan::{append_tapioca_plan, ExecutionPlan, OpId, OpKind, TapiocaPlanInput};
use tapioca::schedule::{check_decl_extents, compute_schedule, ScheduleParams, WriteDecl};
use tapioca::sim_exec::{simulate, CollectiveSpec, SimReport, StorageConfig};
use tapioca_topology::{MachineProfile, TopologyProvider};

use crate::romio::MpiIoConfig;

/// Simulate a collective operation through per-variable MPI I/O calls.
///
/// `cfg.cb_aggregators` is per file group, like TAPIOCA's
/// `num_aggregators` (the paper tunes "aggregators per Pset" /
/// "aggregators per OST" for both systems identically).
///
/// # Errors
/// [`TapiocaError::InvalidConfig`] if `cfg` names no aggregator or no
/// buffer, a group fails [`GroupSpec::validate`], or a declaration's
/// `offset + len` overflows `u64`; otherwise what the simulator returns
/// (e.g. a storage/profile kind mismatch).
///
/// [`TapiocaError::InvalidConfig`]: tapioca::TapiocaError::InvalidConfig
/// [`GroupSpec::validate`]: tapioca::sim_exec::GroupSpec::validate
pub fn run_mpiio_sim(
    profile: &MachineProfile,
    storage: &StorageConfig,
    spec: &CollectiveSpec,
    cfg: &MpiIoConfig,
) -> tapioca::Result<SimReport> {
    cfg.validate()?;
    let machine = &profile.machine;
    let mut plan = ExecutionPlan::new();

    for group in &spec.groups {
        group.validate(machine)?;
        check_decl_extents(&group.decls)?;
        let max_vars = group.decls.iter().map(Vec::len).max().unwrap_or(0);
        let io = machine.io_nodes_for(&group.ranks).first().copied().unwrap_or(0);

        let mut entry_deps: Vec<OpId> = Vec::new();
        for v in 0..max_vars {
            // This call sees only variable v of each rank.
            let call_decls: Vec<Vec<WriteDecl>> = group
                .decls
                .iter()
                .map(|d| d.get(v).map(|&x| vec![x]).unwrap_or_default())
                .collect();
            let sched = compute_schedule(&call_decls, ScheduleParams {
                num_aggregators: cfg.cb_aggregators,
                buffer_size: cfg.cb_buffer_size,
                align_to_buffer: false,
            });
            if sched.partitions.is_empty() {
                continue;
            }
            let (_, choices) =
                elect_schedule(machine, &sched, &group.ranks, io, PlacementStrategy::RankOrder);

            let range = append_tapioca_plan(&mut plan, &TapiocaPlanInput {
                schedule: &sched,
                aggregator_choice: &choices,
                node_of_rank: &|local| machine.node_of_rank(group.ranks[local]),
                file_of_partition: &|_| group.file,
                mode: spec.mode,
                pipelining: false, // single collective buffer
                entry_deps: entry_deps.clone(),
                // sequential calls never share a filesystem wave
                wave_base: (v as u64 + 1) * 1_000_000,
                crashes: Vec::new(),
            });

            // Barrier op: the next call starts only when this one is done
            // (bulk-synchronous application behaviour).
            let barrier = OpKind::Transfer { src: 0, dst: 0, bytes: 0.0 };
            entry_deps = vec![plan.push(barrier, range.collect())];
        }
    }
    simulate(profile, storage, &plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapioca::config::TapiocaConfig;
    use tapioca::sim_exec::{run_tapioca_sim, GroupSpec};
    use tapioca::TapiocaError;
    use tapioca_pfs::{AccessMode, GpfsTunables, LustreTunables};
    use tapioca_topology::{mira_profile, theta_profile, MIB};
    use tapioca_workloads::hacc::{HaccIo, Layout};

    fn hacc_groups_single(nranks: usize, particles: u64, layout: Layout) -> CollectiveSpec {
        let w = HaccIo { num_ranks: nranks, particles_per_rank: particles, layout };
        CollectiveSpec {
            groups: vec![GroupSpec {
                file: 0,
                ranks: (0..nranks).collect(),
                decls: w.decls(),
            }],
            mode: AccessMode::Write,
        }
    }

    #[test]
    fn baseline_simulates_and_moves_all_bytes() {
        let profile = theta_profile(32, 4);
        let spec = hacc_groups_single(128, 2000, Layout::StructOfArrays);
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let cfg = MpiIoConfig { cb_aggregators: 8, cb_buffer_size: 8 * MIB };
        let rep = run_mpiio_sim(&profile, &storage, &spec, &cfg).unwrap();
        assert!(rep.elapsed > 0.0);
        assert_eq!(rep.bytes, (128u64 * 2000 * 38) as f64);
    }

    #[test]
    fn tapioca_beats_baseline_on_soa_multivar() {
        // The paper's headline mechanism: SoA = 9 collective calls for
        // MPI I/O (partial buffers, sequential) vs one declared schedule
        // for TAPIOCA.
        let profile = theta_profile(32, 4);
        let spec = hacc_groups_single(128, 7000, Layout::StructOfArrays);
        let storage = StorageConfig::Lustre(LustreTunables::theta_hacc());
        let mpiio = run_mpiio_sim(&profile, &storage, &spec, &MpiIoConfig {
            cb_aggregators: 8,
            cb_buffer_size: 16 * MIB,
        })
        .unwrap();
        let tap = run_tapioca_sim(&profile, &storage, &spec, &TapiocaConfig {
            num_aggregators: 8,
            buffer_size: 16 * MIB,
            ..Default::default()
        })
        .unwrap();
        assert!(
            tap.bandwidth > mpiio.bandwidth,
            "TAPIOCA {} GiB/s must beat MPI I/O {} GiB/s on SoA",
            tap.bandwidth_gib(),
            mpiio.bandwidth_gib()
        );
    }

    #[test]
    fn aos_gap_is_smaller_than_soa_gap() {
        let profile = mira_profile(128, 4);
        let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
        let mk = |layout| {
            let w = HaccIo { num_ranks: 512, particles_per_rank: 6000, layout };
            CollectiveSpec {
                groups: vec![GroupSpec {
                    file: 0,
                    ranks: (0..512).collect(),
                    decls: w.decls(),
                }],
                mode: AccessMode::Write,
            }
        };
        let cb = MpiIoConfig { cb_aggregators: 16, cb_buffer_size: 4 * MIB };
        let tp = TapiocaConfig { num_aggregators: 16, buffer_size: 4 * MIB, ..Default::default() };
        let ratio = |layout| {
            let spec = mk(layout);
            let b = run_mpiio_sim(&profile, &storage, &spec, &cb).unwrap();
            let t = run_tapioca_sim(&profile, &storage, &spec, &tp).unwrap();
            t.bandwidth / b.bandwidth
        };
        let soa = ratio(Layout::StructOfArrays);
        let aos = ratio(Layout::ArrayOfStructs);
        assert!(soa > aos, "SoA speedup {soa:.2} should exceed AoS speedup {aos:.2}");
        assert!(aos >= 0.9, "TAPIOCA must not lose badly on AoS (got {aos:.2})");
    }

    /// Hints every rejection case starts from.
    const HINTS: MpiIoConfig = MpiIoConfig { cb_aggregators: 4, cb_buffer_size: MIB };

    /// `run_mpiio_sim`'s error on `spec` + `cfg` for a small Theta
    /// machine (64 ranks), as text.
    fn rejection(spec: &CollectiveSpec, cfg: &MpiIoConfig) -> String {
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        match run_mpiio_sim(&theta_profile(16, 4), &storage, spec, cfg) {
            Err(e @ TapiocaError::InvalidConfig(_)) => e.to_string(),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_rank_declaration_count_mismatch() {
        let mut spec = hacc_groups_single(64, 100, Layout::StructOfArrays);
        spec.groups[0].decls.pop();
        let err = rejection(&spec, &HINTS);
        assert!(err.contains("64 ranks but 63 declaration lists"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_ranks() {
        let mut spec = hacc_groups_single(64, 100, Layout::StructOfArrays);
        spec.groups[0].ranks[63] = 5000;
        let err = rejection(&spec, &HINTS);
        assert!(err.contains("spec rank 5000 exceeds the machine's 64 ranks"), "{err}");
    }

    #[test]
    fn rejects_overflowing_extents() {
        let mut spec = hacc_groups_single(64, 100, Layout::StructOfArrays);
        spec.groups[0].decls[7][2] = WriteDecl { offset: u64::MAX - 10, len: 100 };
        let err = rejection(&spec, &HINTS);
        assert!(err.contains("declaration 2 of rank 7 overflows"), "{err}");
    }

    #[test]
    fn rejects_zero_aggregators() {
        let spec = hacc_groups_single(64, 100, Layout::StructOfArrays);
        let err = rejection(&spec, &MpiIoConfig { cb_aggregators: 0, ..HINTS });
        assert!(err.contains("need at least one aggregator"), "{err}");
    }

    #[test]
    fn rejects_a_zero_buffer() {
        let spec = hacc_groups_single(64, 100, Layout::StructOfArrays);
        let err = rejection(&spec, &MpiIoConfig { cb_buffer_size: 0, ..HINTS });
        assert!(err.contains("buffer size must be positive"), "{err}");
    }
}
