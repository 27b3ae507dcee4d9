//! Simulation executor for tier-aware aggregation on Theta-class
//! machines (KNL + Lustre — the hardware the paper's future-work
//! paragraph names).
//!
//! Differences from the base executor in `tapioca::sim_exec`:
//!
//! * every aggregation transfer ends in the aggregator node's **buffer
//!   tier** service station (DRAM or MCDRAM), so memory bandwidth is
//!   part of the pipeline — the MCDRAM/DRAM contrast the paper
//!   motivates;
//! * with [`Destination::BurstBufferThenDrain`], each round's flush is a
//!   node-local SSD write (no network, no Lustre locks), and a **drain**
//!   flow ships the data to the PFS asynchronously, serialized per node
//!   and overlapping with everything else. The report separates
//!   *time-to-safe* (checkpoint durable on flash, application resumes)
//!   from *time-to-PFS* (drain complete).

use std::collections::HashMap;

use tapioca::config::TapiocaConfig;
use tapioca::placement::elect_schedule;
use tapioca::schedule::{compute_schedule, ScheduleParams};
use tapioca::sim_exec::CollectiveSpec;
use tapioca::{Result, TapiocaError};
use tapioca_netsim::{FlowId, SimTime, Simulator};
use tapioca_pfs::{AccessMode, FlushReq, LustreModel, LustreTunables};
use tapioca_topology::{
    lnet_gateway_nodes, LinkIx, MachineProfile, NodeId, StorageProfile, TopologyProvider,
};

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
/// [`TapiocaError::InvalidConfig`] if `cfg` fails validation, the spec
/// is a read, `profile` is not a Lustre (KNL) machine, or a group's rank
/// and declaration counts differ.
///
/// # Panics
/// Panics if the tier configuration is invalid ([`TieredConfig::validate`]).
pub fn run_tiered_sim(
    profile: &MachineProfile,
    lustre_tun: &LustreTunables,
    spec: &CollectiveSpec,
    cfg: &TapiocaConfig,
    tiered: &TieredConfig,
) -> Result<TieredReport> {
    cfg.validate()?;
    tiered.validate();
    let invalid = |msg: String| Err(TapiocaError::InvalidConfig(msg));
    if spec.mode != AccessMode::Write {
        return invalid("tiered staging is a write-path extension".into());
    }
    let machine = &profile.machine;
    let net = machine.interconnect();
    let StorageProfile::Lustre { total_osts, ost_write_bw, ost_read_bw, lnet_bw } =
        profile.storage
    else {
        return invalid("tiered staging targets the KNL/Lustre platform".into());
    };
    if let Some(group) = spec.groups.iter().find(|g| g.ranks.len() != g.decls.len()) {
        return invalid(format!(
            "group has {} ranks but {} declaration lists",
            group.ranks.len(),
            group.decls.len()
        ));
    }

    let mut sim = Simulator::from_interconnect(net);
    sim.set_completion_slack(20e-6);
    let mut lustre = LustreModel::new(
        &mut sim,
        total_osts,
        ost_write_bw,
        ost_read_bw,
        lnet_bw,
        lnet_gateway_nodes(net.num_nodes()),
        *lustre_tun,
    );

    let buffer_spec = TierSpec::knl_default(tiered.buffer_tier);
    let ssd = TierSpec::knl_default(Tier::NodeLocalSsd);

    // Lazily-created per-node tier stations.
    let mut buf_links: HashMap<NodeId, usize> = HashMap::new();
    let mut ssd_w_links: HashMap<NodeId, usize> = HashMap::new();
    let mut ssd_r_links: HashMap<NodeId, usize> = HashMap::new();

    // Per-partition structures shared between the scheduling pass and
    // the flow submission pass.
    struct PartPlan {
        agg_node: NodeId,
        /// per round: (source node, bytes)
        transfers: Vec<Vec<(NodeId, f64)>>,
        /// per round: PFS-bound request (drain or direct flush)
        pfs_reqs: Vec<FlushReq>,
        /// per round: payload bytes
        round_bytes: Vec<f64>,
    }

    let mut parts: Vec<PartPlan> = Vec::new();
    let mut total_bytes = 0.0f64;
    for group in &spec.groups {
        let sched = compute_schedule(&group.decls, ScheduleParams {
            num_aggregators: cfg.num_aggregators,
            buffer_size: cfg.buffer_size,
            align_to_buffer: true,
        });
        total_bytes += sched.total_bytes() as f64;
        let io = machine.io_nodes_for(&group.ranks).first().copied().unwrap_or(0);
        let (members_global_all, choices) =
            elect_schedule(machine, &sched, &group.ranks, io, cfg.strategy);
        for (part, (members_global, &choice)) in
            sched.partitions.iter().zip(members_global_all.iter().zip(&choices))
        {
            let agg_node = machine.node_of_rank(members_global[choice]);
            let nrounds = part.rounds.len();
            let mut transfers: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); nrounds];
            for &m in &part.members {
                for c in &sched.chunks_by_rank[m] {
                    if c.partition != part.index {
                        continue;
                    }
                    let node = machine.node_of_rank(group.ranks[m]);
                    let row = &mut transfers[c.round as usize];
                    match row.iter_mut().find(|(n, _)| *n == node) {
                        Some((_, b)) => *b += c.len as f64,
                        None => row.push((node, c.len as f64)),
                    }
                }
            }
            let pfs_reqs: Vec<FlushReq> = part
                .rounds
                .iter()
                .map(|round| {
                    let seg = round.segments.first();
                    FlushReq {
                        src_node: agg_node,
                        file: group.file,
                        offset: seg.map(|s| s.file_offset).unwrap_or(0),
                        len: round.bytes,
                        mode: AccessMode::Write,
                    }
                })
                .collect();
            let round_bytes = part.rounds.iter().map(|r| r.bytes as f64).collect();
            parts.push(PartPlan { agg_node, transfers, pfs_reqs, round_bytes });
        }
    }

    // Lock analysis + wave planning for the PFS-bound flows (waves by
    // round index, as in the base executor).
    let all_reqs: Vec<FlushReq> = parts.iter().flat_map(|p| p.pfs_reqs.iter().copied()).collect();
    lustre.register_operation(&all_reqs);
    let max_rounds = parts.iter().map(|p| p.pfs_reqs.len()).max().unwrap_or(0);
    let mut planned_by_part_round: HashMap<(usize, usize), Vec<tapioca_pfs::PlannedFlow>> =
        HashMap::new();
    for r in 0..max_rounds {
        let mut wave = Vec::new();
        let mut owners = Vec::new();
        for (pi, p) in parts.iter().enumerate() {
            if let Some(req) = p.pfs_reqs.get(r) {
                if req.len > 0 {
                    owners.push(pi);
                    wave.push(*req);
                }
            }
        }
        for pf in lustre.plan_wave(&wave) {
            planned_by_part_round
                .entry((owners[pf.req_index], r))
                .or_default()
                .push(pf);
        }
    }

    // Submit flows. One scratch route buffer serves every submission —
    // the simulator interns routes, so owned Vecs buy nothing.
    let latency = net.hop_latency();
    let mut route_buf: Vec<LinkIx> = Vec::new();
    let mut safe_flows: Vec<FlowId> = Vec::new();
    let mut pfs_flows: Vec<FlowId> = Vec::new();
    for (pi, part) in parts.iter().enumerate() {
        let agg = part.agg_node;
        let buf_link = *buf_links
            .entry(agg)
            .or_insert_with(|| sim.add_virtual_link(buffer_spec.write_bw));

        let mut prev_transfers: Vec<FlowId> = Vec::new();
        let mut stage_hist: Vec<Vec<FlowId>> = Vec::new(); // flush-to-destination per round
        let mut drain_hist: Vec<Vec<FlowId>> = Vec::new();
        for (r, row) in part.transfers.iter().enumerate() {
            // fence + buffer reuse gating (reuse waits on the *staging*
            // flush of r-2: with a burst buffer the app never waits for
            // the drain)
            let mut gate = prev_transfers.clone();
            let reuse = if cfg.pipelining { r.checked_sub(2) } else { r.checked_sub(1) };
            if let Some(fr) = reuse {
                gate.extend_from_slice(&stage_hist[fr]);
            }
            let transfers: Vec<FlowId> = row
                .iter()
                .map(|&(node, bytes)| {
                    route_buf.clear();
                    if node != agg {
                        net.route_into(node, agg, &mut route_buf);
                    }
                    let hops = route_buf.len();
                    route_buf.push(buf_link); // tier ingestion
                    sim.submit_with_deps(0.0, latency * hops as f64, &route_buf, bytes, &gate)
                })
                .collect();

            let bytes = part.round_bytes[r];
            match tiered.destination {
                Destination::DirectPfs => {
                    let mut deps = transfers.clone();
                    if let Some(prev) = stage_hist.last() {
                        deps.extend_from_slice(prev);
                    }
                    let flows: Vec<FlowId> = planned_by_part_round
                        .remove(&(pi, r))
                        .unwrap_or_default()
                        .into_iter()
                        .map(|pf| {
                            route_buf.clear();
                            if let Some(a) = pf.attach_node {
                                if a != agg {
                                    net.route_into(agg, a, &mut route_buf);
                                }
                            }
                            let hops = route_buf.len();
                            route_buf.extend_from_slice(&pf.storage_route);
                            sim.submit_with_deps(
                                0.0,
                                pf.delay + latency * hops as f64,
                                &route_buf,
                                pf.bytes,
                                &deps,
                            )
                        })
                        .collect();
                    safe_flows.extend_from_slice(&flows);
                    pfs_flows.extend_from_slice(&flows);
                    stage_hist.push(flows);
                    drain_hist.push(Vec::new());
                }
                Destination::BurstBufferThenDrain => {
                    let ssd_w = *ssd_w_links
                        .entry(agg)
                        .or_insert_with(|| sim.add_virtual_link(ssd.write_bw));
                    let ssd_r = *ssd_r_links
                        .entry(agg)
                        .or_insert_with(|| sim.add_virtual_link(ssd.read_bw));
                    // stage: node-local flash write
                    let mut deps = transfers.clone();
                    if let Some(prev) = stage_hist.last() {
                        deps.extend_from_slice(prev);
                    }
                    let stage = sim.submit_with_deps(0.0, 0.0, [ssd_w], bytes, &deps);
                    safe_flows.push(stage);
                    // drain: flash -> fabric -> Lustre, serialized per node
                    let mut ddeps = vec![stage];
                    if let Some(prev) = drain_hist.last() {
                        ddeps.extend_from_slice(prev);
                    }
                    let drains: Vec<FlowId> = planned_by_part_round
                        .remove(&(pi, r))
                        .unwrap_or_default()
                        .into_iter()
                        .map(|pf| {
                            route_buf.clear();
                            route_buf.push(ssd_r);
                            if let Some(a) = pf.attach_node {
                                if a != agg {
                                    net.route_into(agg, a, &mut route_buf);
                                }
                            }
                            let hops = route_buf.len() - 1;
                            route_buf.extend_from_slice(&pf.storage_route);
                            sim.submit_with_deps(
                                0.0,
                                pf.delay + latency * hops as f64,
                                &route_buf,
                                pf.bytes,
                                &ddeps,
                            )
                        })
                        .collect();
                    pfs_flows.extend_from_slice(&drains);
                    stage_hist.push(vec![stage]);
                    drain_hist.push(drains);
                }
            }
            prev_transfers = transfers;
        }
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
    Ok(TieredReport {
        time_to_safe,
        time_to_pfs,
        bytes: total_bytes,
        perceived_bandwidth: if time_to_safe > 0.0 { total_bytes / time_to_safe } else { 0.0 },
        end_to_end_bandwidth: if time_to_pfs > 0.0 { total_bytes / time_to_pfs } else { 0.0 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapioca::schedule::WriteDecl;
    use tapioca::sim_exec::GroupSpec;
    use tapioca_topology::{theta_profile, MIB};

    fn spec(nranks: usize, per: u64) -> CollectiveSpec {
        CollectiveSpec {
            groups: vec![GroupSpec {
                file: 0,
                ranks: (0..nranks).collect(),
                decls: (0..nranks as u64)
                    .map(|r| vec![WriteDecl { offset: r * per, len: per }])
                    .collect(),
            }],
            mode: AccessMode::Write,
        }
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
}
