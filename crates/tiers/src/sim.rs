//! Simulation executor for tier-aware aggregation on Theta-class
//! machines (KNL + Lustre — the hardware the paper's future-work
//! paragraph names).
//!
//! Neither the round structure nor the storage path is derived here.
//! [`run_tiered_sim`] builds a [`SimSession`] — the base executor's
//! validation, schedule, election and plan DAG — and a
//! [`StorageLowering`] of the session's [`ExecutionPlan`] — the Lustre
//! model, its lock analysis, the planned filesystem waves and their
//! routes — and submits the plan with tier physics of its own:
//!
//! * every aggregation transfer ends in the destination node's **buffer
//!   tier** service station (DRAM or MCDRAM), so memory bandwidth is
//!   part of the pipeline — the MCDRAM/DRAM contrast the paper
//!   motivates;
//! * with [`Destination::BurstBufferThenDrain`], each flush is a
//!   node-local SSD write (no network, no Lustre locks), and **drain**
//!   flows ship the data to the PFS asynchronously, serialized per
//!   aggregator and overlapping with everything else. The report
//!   separates *time-to-safe* (checkpoint durable on flash, application
//!   resumes) from *time-to-PFS* (drain complete).
//!
//! [`ExecutionPlan`]: tapioca::plan::ExecutionPlan

use std::collections::HashMap;

use tapioca::config::TapiocaConfig;
use tapioca::plan::OpKind;
use tapioca::sim_exec::{CollectiveSpec, SimSession, StorageConfig, StorageLowering};
use tapioca::{Result, TapiocaError};
use tapioca_netsim::{FlowId, SimTime};
use tapioca_pfs::{AccessMode, LustreTunables};
use tapioca_topology::{LinkIx, MachineProfile, NodeId, StorageProfile};

use crate::tier::{Destination, Tier, TierSpec, TieredConfig};

/// Result of a tiered collective write.
#[derive(Debug, Clone)]
pub struct TieredReport {
    /// When every byte is durable on the staging destination (node-local
    /// flash for burst-buffer runs; the PFS itself for direct runs) —
    /// the time the application is blocked for.
    pub time_to_safe: SimTime,
    /// When every byte has reached the parallel filesystem.
    pub time_to_pfs: SimTime,
    /// Payload bytes.
    pub bytes: f64,
    /// `bytes / time_to_safe` — the bandwidth the application perceives.
    pub perceived_bandwidth: f64,
    /// `bytes / time_to_pfs` — the end-to-end bandwidth.
    pub end_to_end_bandwidth: f64,
}

/// Run a tier-aware simulated collective write.
///
/// # Errors
/// [`TapiocaError::InvalidConfig`] if `tiered` fails
/// [`TieredConfig::validate`], `cfg` carries a fault plan (the tier
/// lowering charges no flush penalties and degrades no links), the spec
/// is a read, `profile` is not a Lustre (KNL) machine, or
/// [`SimSession::build`] rejects `cfg` or the spec.
pub fn run_tiered_sim(
    profile: &MachineProfile,
    lustre_tun: &LustreTunables,
    spec: &CollectiveSpec,
    cfg: &TapiocaConfig,
    tiered: &TieredConfig,
) -> Result<TieredReport> {
    tiered.validate().map_err(TapiocaError::InvalidConfig)?;
    let invalid = |msg: &str| Err(TapiocaError::InvalidConfig(msg.into()));
    if cfg.faults.is_some() {
        return invalid("tiered staging does not model fault plans");
    }
    if spec.mode != AccessMode::Write {
        return invalid("tiered staging is a write-path extension");
    }
    if !matches!(profile.storage, StorageProfile::Lustre { .. }) {
        return invalid("tiered staging targets the KNL/Lustre platform");
    }
    let storage = StorageConfig::Lustre(*lustre_tun);
    let session = SimSession::build(profile, &storage, spec, cfg)?;
    let plan = session.plan();
    let (pfs, mut sim) = StorageLowering::new(profile, &storage, plan, None)?;
    let net = profile.machine.interconnect();

    // One pass over the ops in order. An op's dependents wait for its
    // `done` flows: a transfer's flow, a direct flush's PFS flows, a
    // staged flush's flash write. A drain waits for its own stage and
    // for the drains of the flushes its op depends on, so drains
    // serialize per aggregator like the flushes they follow.
    let buffer_bw = TierSpec::knl_default(tiered.buffer_tier).write_bw;
    let ssd = TierSpec::knl_default(Tier::NodeLocalSsd);
    let mut buf_links: HashMap<NodeId, LinkIx> = HashMap::new();
    let mut ssd_links: HashMap<NodeId, (LinkIx, LinkIx)> = HashMap::new();
    let latency = net.hop_latency();
    let mut done_of: Vec<Vec<FlowId>> = Vec::with_capacity(plan.ops.len());
    let mut drains_of: Vec<Vec<FlowId>> = Vec::with_capacity(plan.ops.len());
    let mut safe_flows: Vec<FlowId> = Vec::new();
    let mut pfs_flows: Vec<FlowId> = Vec::new();
    // One scratch route buffer serves every submission — the simulator
    // interns routes, so owned Vecs buy nothing.
    let mut route: Vec<LinkIx> = Vec::new();
    for (id, op) in plan.ops.iter().enumerate() {
        let deps: Vec<FlowId> = op.deps.iter().flat_map(|&d| done_of[d].iter().copied()).collect();
        let mut drains = Vec::new();
        let done = match op.kind {
            OpKind::Transfer { src, dst, bytes } => {
                let buf = *buf_links.entry(dst).or_insert_with(|| sim.add_virtual_link(buffer_bw));
                route.clear();
                if src != dst {
                    net.route_into(src, dst, &mut route);
                }
                let hops = route.len();
                route.push(buf);
                vec![sim.submit_with_deps(0.0, latency * hops as f64, &route, bytes, &deps)]
            }
            OpKind::Flush { src, len, .. } => {
                // Staged, the flash write is the op's `done` flow and the
                // PFS flows are its drains, which read the flash first.
                let (stage, head) = match tiered.destination {
                    Destination::DirectPfs => (None, None),
                    Destination::BurstBufferThenDrain => {
                        let (ssd_w, ssd_r) = *ssd_links.entry(src).or_insert_with(|| {
                            (sim.add_virtual_link(ssd.write_bw), sim.add_virtual_link(ssd.read_bw))
                        });
                        (Some(sim.submit_with_deps(0.0, 0.0, [ssd_w], len as f64, &deps)), Some(ssd_r))
                    }
                };
                let pfs_deps: Vec<FlowId> = match stage {
                    None => deps,
                    Some(stage) => std::iter::once(stage)
                        .chain(op.deps.iter().flat_map(|&d| drains_of[d].iter().copied()))
                        .collect(),
                };
                let flows: Vec<FlowId> = pfs
                    .flows(id)
                    .iter()
                    .map(|pf| {
                        route.clear();
                        route.extend(head);
                        let delay = pf.delay + latency * pfs.append_route(pf, &mut route) as f64;
                        sim.submit_with_deps(0.0, delay, &route, pf.bytes, &pfs_deps)
                    })
                    .collect();
                pfs_flows.extend_from_slice(&flows);
                match stage {
                    None => {
                        safe_flows.extend_from_slice(&flows);
                        flows
                    }
                    Some(stage) => {
                        safe_flows.push(stage);
                        drains = flows;
                        vec![stage]
                    }
                }
            }
        };
        done_of.push(done);
        drains_of.push(drains);
    }

    sim.run_to_idle();
    let finish = |flows: &[FlowId]| {
        flows
            .iter()
            .map(|&f| sim.finish_time(f).expect("flow completed"))
            .fold(0.0f64, f64::max)
    };
    let time_to_safe = finish(&safe_flows);
    let time_to_pfs = finish(&pfs_flows).max(time_to_safe);
    let bytes = plan.payload_bytes;
    Ok(TieredReport {
        time_to_safe,
        time_to_pfs,
        bytes,
        perceived_bandwidth: if time_to_safe > 0.0 { bytes / time_to_safe } else { 0.0 },
        end_to_end_bandwidth: if time_to_pfs > 0.0 { bytes / time_to_pfs } else { 0.0 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapioca::schedule::WriteDecl;
    use tapioca::sim_exec::GroupSpec;
    use tapioca_topology::{theta_profile, MIB};

    fn spec(nranks: usize, per: u64) -> CollectiveSpec {
        spec_in_files(nranks, per, 1)
    }

    /// `nranks` ranks writing `per` bytes each, dealt round-robin over
    /// `files` file groups: rank `r` is member `r / files` of file
    /// `r % files`, so every node writes to every file.
    fn spec_in_files(nranks: usize, per: u64, files: usize) -> CollectiveSpec {
        let groups = (0..files)
            .map(|f| {
                let ranks: Vec<usize> = (f..nranks).step_by(files).collect();
                let decls = (0..ranks.len() as u64)
                    .map(|i| vec![WriteDecl { offset: i * per, len: per }])
                    .collect();
                GroupSpec { file: f, ranks, decls }
            })
            .collect();
        CollectiveSpec { groups, mode: AccessMode::Write }
    }

    fn base_cfg() -> TapiocaConfig {
        TapiocaConfig { num_aggregators: 16, buffer_size: 8 * MIB, ..Default::default() }
    }

    #[test]
    fn direct_pfs_matches_base_semantics() {
        let profile = theta_profile(64, 4);
        let rep = run_tiered_sim(
            &profile,
            &LustreTunables::theta_optimized(),
            &spec(256, MIB),
            &base_cfg(),
            &TieredConfig::default(),
        )
        .unwrap();
        assert!(rep.time_to_safe > 0.0);
        assert_eq!(rep.time_to_safe, rep.time_to_pfs, "direct writes are safe when on the PFS");
        assert_eq!(rep.bytes, 256.0 * MIB as f64);
    }

    #[test]
    fn burst_buffer_collapses_perceived_time() {
        let profile = theta_profile(64, 4);
        let tun = LustreTunables::theta_optimized();
        let s = spec(256, 4 * MIB);
        let direct = run_tiered_sim(&profile, &tun, &s, &base_cfg(), &TieredConfig::default())
            .unwrap();
        let bb = run_tiered_sim(&profile, &tun, &s, &base_cfg(), &TieredConfig {
            buffer_tier: Tier::Dram,
            destination: Destination::BurstBufferThenDrain,
        })
        .unwrap();
        assert!(
            bb.time_to_safe < 0.5 * direct.time_to_safe,
            "staging on flash must beat the PFS round trip: {} vs {}",
            bb.time_to_safe,
            direct.time_to_safe
        );
        // the drain still pays the same PFS; end-to-end within 2.5x of direct
        assert!(bb.time_to_pfs >= bb.time_to_safe);
        assert!(bb.time_to_pfs < 2.5 * direct.time_to_pfs);
    }

    #[test]
    fn mcdram_buffers_never_slower_than_dram() {
        let profile = theta_profile(32, 4);
        let tun = LustreTunables::theta_optimized();
        let s = spec(128, 2 * MIB);
        let mk = |tier| {
            run_tiered_sim(&profile, &tun, &s, &base_cfg(), &TieredConfig {
                buffer_tier: tier,
                destination: Destination::BurstBufferThenDrain,
            })
            .unwrap()
        };
        let dram = mk(Tier::Dram);
        let mcdram = mk(Tier::Mcdram);
        assert!(mcdram.time_to_safe <= dram.time_to_safe * 1.0001);
    }

    #[test]
    fn drains_overlap_with_later_rounds() {
        // With several rounds, time_to_pfs must be far less than
        // (stage time + full drain time) run back-to-back.
        let profile = theta_profile(32, 4);
        let tun = LustreTunables::theta_optimized();
        let s = spec(128, 4 * MIB);
        let bb = run_tiered_sim(&profile, &tun, &s, &base_cfg(), &TieredConfig {
            buffer_tier: Tier::Dram,
            destination: Destination::BurstBufferThenDrain,
        })
        .unwrap();
        let direct = run_tiered_sim(&profile, &tun, &s, &base_cfg(), &TieredConfig::default())
            .unwrap();
        assert!(
            bb.time_to_pfs < bb.time_to_safe + direct.time_to_pfs,
            "drain must overlap with staging ({} vs {} + {})",
            bb.time_to_pfs,
            bb.time_to_safe,
            direct.time_to_pfs
        );
    }

    /// `run_tiered_sim`'s error on `profile` + `spec` + `cfg`, as text.
    fn rejection(profile: &MachineProfile, spec: &CollectiveSpec, cfg: &TapiocaConfig) -> String {
        let tun = LustreTunables::theta_optimized();
        match run_tiered_sim(profile, &tun, spec, cfg, &TieredConfig::default()) {
            Err(e @ TapiocaError::InvalidConfig(_)) => e.to_string(),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn rejects_gpfs_machines() {
        let profile = tapioca_topology::mira_profile(128, 4);
        let err = rejection(&profile, &spec(64, MIB), &base_cfg());
        assert!(err.contains("KNL/Lustre"), "{err}");
    }

    #[test]
    fn rejects_an_invalid_config() {
        let cfg = TapiocaConfig { num_aggregators: 0, ..base_cfg() };
        let err = rejection(&theta_profile(16, 4), &spec(64, MIB), &cfg);
        assert!(err.contains("at least one aggregator"), "{err}");
    }

    #[test]
    fn rejects_reads() {
        let read = CollectiveSpec { mode: AccessMode::Read, ..spec(64, MIB) };
        let err = rejection(&theta_profile(16, 4), &read, &base_cfg());
        assert!(err.contains("write-path extension"), "{err}");
    }

    #[test]
    fn rejects_a_rank_declaration_count_mismatch() {
        let mut s = spec(64, MIB);
        s.groups[0].decls.pop();
        let err = rejection(&theta_profile(16, 4), &s, &base_cfg());
        assert!(err.contains("64 ranks but 63 declaration lists"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_ranks() {
        let mut s = spec(64, MIB);
        s.groups[0].ranks[63] = 5000;
        let err = rejection(&theta_profile(16, 4), &s, &base_cfg());
        assert!(err.contains("spec rank 5000 exceeds the machine's 64 ranks"), "{err}");
    }

    #[test]
    fn rejects_overflowing_extents() {
        let mut s = spec(64, MIB);
        s.groups[0].decls[7][0] = WriteDecl { offset: u64::MAX - 10, len: 100 };
        let err = rejection(&theta_profile(16, 4), &s, &base_cfg());
        assert!(err.contains("declaration 0 of rank 7 overflows"), "{err}");
    }

    #[test]
    fn rejects_fault_plans() {
        let faults = tapioca::FaultPlan::seeded(1)
            .with(tapioca::FaultSpec::LinkDegrade { factor: 0.5 });
        let cfg = TapiocaConfig { faults: Some(faults), ..base_cfg() };
        let err = rejection(&theta_profile(16, 4), &spec(64, MIB), &cfg);
        assert!(err.contains("fault plans"), "{err}");
    }

    #[test]
    fn rejects_a_buffer_tier_that_is_not_memory() {
        let tiered = TieredConfig { buffer_tier: Tier::NodeLocalSsd, ..TieredConfig::default() };
        let tun = LustreTunables::theta_optimized();
        let got = run_tiered_sim(&theta_profile(16, 4), &tun, &spec(64, MIB), &base_cfg(), &tiered);
        assert!(
            matches!(&got, Err(TapiocaError::InvalidConfig(m)) if m.contains("addressable memory")),
            "{got:?}"
        );
    }

    /// Every report field, as bits, for the four tiered configurations ×
    /// pipelining on/off on a 32-node Theta shape (128 ranks × 4 MiB,
    /// 16 aggregators per file, 8 MiB buffers) in one file, plus direct
    /// and staged runs of the same ranks interleaved over two files (lock
    /// analysis and waves span both), recorded from an independent
    /// derivation of the tiered round DAG: lowering the shared plan must
    /// reproduce every bit.
    #[test]
    fn reports_match_the_recorded_golden_bits() {
        type Bits = [u64; 4];
        // (files, pipelining, buffer tier, destination) ->
        // [time_to_safe, time_to_pfs, perceived, end-to-end]
        let golden: [(usize, bool, Tier, Destination, Bits); 10] = {
            use Destination::{BurstBufferThenDrain as Bb, DirectPfs as Direct};
            use Tier::{Dram, Mcdram};
            [
                (1, true, Dram, Direct, [
                    0x3fb577e1e33b5adf, 0x3fb577e1e33b5adf, 0x41f7d9606d275dd6, 0x41f7d9606d275dd6,
                ]),
                (1, true, Mcdram, Direct, [
                    0x3fb57379364a2565, 0x3fb57379364a2565, 0x41f7de474766d2bd, 0x41f7de474766d2bd,
                ]),
                (1, true, Dram, Bb, [
                    0x3f9016c16c16c16c, 0x3fb677e1e33b5adf, 0x421fd2bd865d591b, 0x41f6c9a4c54a55de,
                ]),
                (1, true, Mcdram, Bb, [
                    0x3f90051eb851eb85, 0x3fb67379364a2565, 0x421ff5c5d52c6caa, 0x41f6ce1e5e3cdacc,
                ]),
                (1, false, Dram, Direct, [
                    0x3fb5792158dcf3fc, 0x3fb5792158dcf3fc, 0x41f7d7fd9e8cb13f, 0x41f7d7fd9e8cb13f,
                ]),
                (1, false, Mcdram, Direct, [
                    0x3fb5704ffefa8909, 0x3fb5704ffefa8909, 0x41f7e1cc33270316, 0x41f7e1cc33270316,
                ]),
                (1, false, Dram, Bb, [
                    0x3f91a24b4f3dbf3f, 0x3fb677e1e33b5adf, 0x421d08ee0b6d79ed, 0x41f6c9a4c54a55de,
                ]),
                (1, false, Mcdram, Bb, [
                    0x3f917f05e7b41371, 0x3fb67379364a2565, 0x421d437652c6453c, 0x41f6ce1e5e3cdacc,
                ]),
                (2, true, Dram, Direct, [
                    0x3faece4950bdc001, 0x3faece4950bdc001, 0x42009ec846fe7d61, 0x42009ec846fe7d61,
                ]),
                (2, true, Dram, Bb, [
                    0x3f9124c7f909c7c2, 0x3fb16724a85ee000, 0x421ddd805617498f, 0x41fd6b9df07ffcab,
                ]),
            ]
        };
        let profile = theta_profile(32, 4);
        let tun = LustreTunables::theta_optimized();
        for (files, pipelining, buffer_tier, destination, want) in golden {
            let s = spec_in_files(128, 4 * MIB, files);
            let cfg = TapiocaConfig { pipelining, ..base_cfg() };
            let tiered = TieredConfig { buffer_tier, destination };
            let r = run_tiered_sim(&profile, &tun, &s, &cfg, &tiered).unwrap();
            let got = [r.time_to_safe, r.time_to_pfs, r.perceived_bandwidth, r.end_to_end_bandwidth]
                .map(f64::to_bits);
            assert_eq!(got, want, "{files} file(s), pipelining {pipelining}, {tiered:?}");
            assert_eq!(r.bytes, 128.0 * 4.0 * MIB as f64);
        }
    }
}
