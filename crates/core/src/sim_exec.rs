//! Simulation-mode executor: run an [`ExecutionPlan`] on the flow-level
//! simulator against a machine profile and a filesystem model.
//!
//! This is the driver behind every figure/table reproduction: the same
//! schedule + placement objects used by thread mode are compiled to a
//! plan (see [`crate::plan`]) and executed here with link contention,
//! storage service stations, and lock penalties.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{sync_channel, Receiver, RecvError, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use tapioca_mpi::{FaultPlan, IoPolicy};
use tapioca_netsim::{FlowId, SimTime, Simulator};
use tapioca_pfs::{
    AccessMode, FileId, FlushReq, GpfsModel, GpfsTunables, LustreModel, LustreTunables,
    PlannedFlow,
};
use tapioca_topology::{
    lnet_gateway_nodes, LinkIx, Machine, MachineProfile, Rank, StorageProfile,
    TopologyProvider, Torus,
};

use crate::config::TapiocaConfig;
use crate::error::{Result, TapiocaError};
use crate::placement::{elect_schedule, election_costs, PartitionElection};
use crate::plan::{
    append_tapioca_plan, ExecutionPlan, OpId, OpKind, PlanCrash, TapiocaPlanInput,
};
use crate::schedule::{
    check_decl_extents, compute_schedule, Schedule, ScheduleParams, WriteDecl,
};

/// Filesystem tunables for a simulation (must match the profile's
/// storage kind).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageConfig {
    /// GPFS tunables (Mira).
    Gpfs(GpfsTunables),
    /// Lustre tunables (Theta).
    Lustre(LustreTunables),
}

/// The filesystem model a lowering plans with; GPFS flows leave
/// through the Pset bridges of its torus.
#[derive(Debug)]
enum StorageModel<'p> {
    Gpfs(GpfsModel, &'p Torus),
    Lustre(LustreModel),
}

/// Result of a simulated collective operation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// End-to-end elapsed simulated time, seconds.
    pub elapsed: SimTime,
    /// Payload bytes moved.
    pub bytes: f64,
    /// Aggregate bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Completion time of every plan operation.
    pub op_finish: Vec<SimTime>,
    /// Number of fabric transfer operations (aggregation phase).
    pub transfers: usize,
    /// Number of storage operations (I/O phase).
    pub flushes: usize,
    /// When the last aggregation transfer completed.
    pub last_transfer_finish: SimTime,
    /// When the last storage operation completed.
    pub last_flush_finish: SimTime,
    /// Faults injected from the fault plan (failed flush attempts plus
    /// one per crash) — mirrors `IoStats::faults_injected`.
    pub faults_injected: u64,
    /// Flush retries the modelled I/O worker performed.
    pub retries: u64,
    /// Aggregator crashes recovered by standby re-election.
    pub reelections: u64,
    /// Partitions whose retry budget was exhausted (thread mode falls
    /// back to direct writes there; the simulator stops charging flush
    /// penalties from that round on, matching the early detection).
    pub degraded: u64,
}

impl SimReport {
    /// Bandwidth in GiB/s for harness output.
    pub fn bandwidth_gib(&self) -> f64 {
        self.bandwidth / (1u64 << 30) as f64
    }
}

/// Execute `plan` against `profile` + `storage`.
///
/// # Errors
/// [`TapiocaError::InvalidConfig`] when the storage config kind does not
/// match the profile's storage profile (Gpfs vs Lustre).
pub fn simulate(
    profile: &MachineProfile,
    storage: &StorageConfig,
    plan: &ExecutionPlan,
) -> Result<SimReport> {
    simulate_faulty(profile, storage, plan, None, &IoPolicy::default())
}

/// Like [`simulate`], but perturbed by a [`FaultPlan`]: link capacities
/// are degraded by `LinkDegrade` specs, and every write flush consults
/// the plan for a transient-fault hint — the same pure function thread
/// mode evaluates — whose retry/backoff cost (`FaultHint::penalty`) is
/// added to the flush's service delay. A hint that exhausts the budget
/// marks its partition degraded: from that round on no penalties are
/// charged, matching the thread runtime's early fallback to direct
/// writes.
///
/// Two steps: every flow of the plan is submitted to a fresh simulator
/// — a pure function of the arguments — and the simulator is run.
/// [`SimSession`] takes the first step once and runs a clone of the
/// submitted simulator each epoch; its tests hold the two to the same
/// bits.
///
/// # Errors
/// [`TapiocaError::InvalidConfig`] on a storage/profile kind mismatch.
fn simulate_faulty(
    profile: &MachineProfile,
    storage: &StorageConfig,
    plan: &ExecutionPlan,
    faults: Option<&FaultPlan>,
    policy: &IoPolicy,
) -> Result<SimReport> {
    let (program, sim) = lower_plan(profile, storage, plan, faults, policy)?;
    Ok(run_submitted(plan, &program, sim))
}

/// What reading back a run of a lowered plan needs besides the
/// simulator it was submitted to: which flows each op owns, and the
/// fault accounting the lowering charged. The op dependencies and kinds
/// stay in the plan.
#[derive(Debug)]
struct FlowProgram {
    /// Op `i` owns flows `op_flows[i]..op_flows[i + 1]`.
    op_flows: Vec<u32>,
    /// Failed flush attempts injected from the fault plan.
    faults_injected: u64,
    /// Flush retries the modelled I/O worker performs.
    retries: u64,
    /// Partitions whose retry budget a fault exhausts.
    degraded: u64,
}

/// The storage half of lowering a plan, shared by every simulated
/// executor: a fresh fabric simulator with the filesystem model's
/// service stations behind the fabric's links, the model shown the
/// whole operation, and every flush op's filesystem flows planned wave
/// by wave. [`StorageLowering::append_route`] gives a planned flow its
/// path; what each executor submits, and gated on what, stays with the
/// executor.
#[derive(Debug)]
pub struct StorageLowering<'p> {
    machine: &'p Machine,
    model: StorageModel<'p>,
    /// Planned filesystem flows of each op (empty unless a flush).
    planned: Vec<Vec<PlannedFlow>>,
}

impl<'p> StorageLowering<'p> {
    /// Lower the storage side of `plan` for `profile` + `storage` onto a
    /// fresh simulator, returned beside the lowering with no flow
    /// submitted. The simulator collapses completions within 20 us, and
    /// `link_degrade` scales the fabric before any station exists (the
    /// stations keep nominal rates).
    ///
    /// # Errors
    /// [`TapiocaError::InvalidConfig`] when the storage config kind does
    /// not match the profile's storage profile (Gpfs vs Lustre).
    pub fn new(
        profile: &'p MachineProfile,
        storage: &StorageConfig,
        plan: &ExecutionPlan,
        link_degrade: Option<f64>,
    ) -> Result<(Self, Simulator)> {
        let machine = &profile.machine;
        let mut sim = Simulator::from_interconnect(machine.interconnect());
        // Collapse near-simultaneous completions (symmetric flows of one
        // round) into single events: 20 us against multi-ms rounds is a
        // <1% perturbation for an order-of-magnitude event reduction.
        sim.set_completion_slack(20e-6);
        if let Some(f) = link_degrade {
            sim.scale_capacities(f);
        }
        let mut model = match (profile.storage, *storage) {
            (StorageProfile::Gpfs { ion_link_bw, ion_service_bw }, StorageConfig::Gpfs(tun)) => {
                let torus = machine.fabric().as_torus().expect("GPFS implies a torus");
                let psets = torus.num_psets();
                let gpfs = GpfsModel::new(&mut sim, psets, ion_link_bw, ion_service_bw, tun);
                StorageModel::Gpfs(gpfs, torus)
            }
            (
                StorageProfile::Lustre { total_osts, ost_write_bw, ost_read_bw, lnet_bw },
                StorageConfig::Lustre(tun),
            ) => StorageModel::Lustre(LustreModel::new(
                &mut sim,
                total_osts,
                ost_write_bw,
                ost_read_bw,
                lnet_bw,
                lnet_gateway_nodes(machine.interconnect().num_nodes()),
                tun,
            )),
            _ => {
                return Err(TapiocaError::InvalidConfig(
                    "storage config kind does not match the machine profile".into(),
                ))
            }
        };

        // Cross-wave lock analysis: the model must see the whole
        // operation before any wave is planned. Flushes are grouped by
        // wave id on the way.
        let mut all_reqs: Vec<FlushReq> = Vec::new();
        let mut waves: BTreeMap<u64, Vec<(usize, FlushReq)>> = BTreeMap::new();
        for (id, op) in plan.ops.iter().enumerate() {
            if let OpKind::Flush { src, file, offset, len, mode, wave } = op.kind {
                let req = FlushReq { src_node: src, file, offset, len, mode };
                all_reqs.push(req);
                waves.entry(wave).or_default().push((id, req));
            }
        }
        match &mut model {
            StorageModel::Gpfs(g, _) => g.register_operation(&all_reqs),
            StorageModel::Lustre(l) => l.register_operation(&all_reqs),
        }

        // Plan the filesystem waves; each flush op collects its flows.
        let mut planned: Vec<Vec<PlannedFlow>> = vec![Vec::new(); plan.ops.len()];
        for reqs in waves.into_values() {
            let plain: Vec<FlushReq> = reqs.iter().map(|(_, r)| *r).collect();
            let wave = match &model {
                StorageModel::Gpfs(g, torus) => g.plan_wave(&plain, |n| torus.pset_of(n)),
                StorageModel::Lustre(l) => l.plan_wave(&plain),
            };
            for pf in wave {
                planned[reqs[pf.req_index].0].push(pf);
            }
        }
        Ok((StorageLowering { machine, model, planned }, sim))
    }

    /// The filesystem flows planned for op `op` (none unless a flush).
    pub fn flows(&self, op: OpId) -> &[PlannedFlow] {
        &self.planned[op]
    }

    /// Append `pf`'s path to `route` — the fabric from its node to the
    /// Pset bridge or its LNET attach node, then its storage stations —
    /// and return the number of fabric hops.
    pub fn append_route(&self, pf: &PlannedFlow, route: &mut Vec<LinkIx>) -> usize {
        let start = route.len();
        match (&self.model, pf.attach_node) {
            (StorageModel::Gpfs(_, torus), _) => torus.io_route_into(pf.src_node, route),
            (StorageModel::Lustre(_), Some(attach)) if attach != pf.src_node => {
                self.machine.interconnect().route_into(pf.src_node, attach, route);
            }
            (StorageModel::Lustre(_), _) => {}
        }
        let hops = route.len() - start;
        route.extend_from_slice(&pf.storage_route);
        hops
    }
}

/// Lower `plan` for `profile` + `storage` under `faults` onto a fresh
/// simulator: the [`StorageLowering`], fault penalties charged, and
/// every op's flows submitted, gated on the flows of the ops it depends
/// on. Nothing is run; the simulator is what [`run_submitted`]
/// consumes, and a clone of it runs identically.
fn lower_plan(
    profile: &MachineProfile,
    storage: &StorageConfig,
    plan: &ExecutionPlan,
    faults: Option<&FaultPlan>,
    policy: &IoPolicy,
) -> Result<(FlowProgram, Simulator)> {
    let degrade = faults.and_then(FaultPlan::link_degrade);
    let (storage, mut sim) = StorageLowering::new(profile, storage, plan, degrade)?;
    let net = profile.machine.interconnect();

    // Per-flush fault hints: segment ordinals within (partition, round)
    // follow flush emission order, the same coordinates thread mode
    // hashes. The prepass also finds each partition's degrade round.
    let mut seg_of_op: HashMap<usize, (u32, u32, u32)> = HashMap::new();
    let mut degrade_round: HashMap<u32, u32> = HashMap::new();
    if let Some(fp) = faults {
        let mut ord: HashMap<(u32, u32), u32> = HashMap::new();
        for (id, op) in plan.ops.iter().enumerate() {
            let (OpKind::Flush { mode: AccessMode::Write, .. }, Some(m)) = (&op.kind, op.meta)
            else {
                continue;
            };
            let s = ord.entry((m.partition, m.round)).or_insert(0);
            seg_of_op.insert(id, (m.partition, m.round, *s));
            if fp
                .flush_fault(m.partition, m.round, *s)
                .is_some_and(|h| h.exceeds(policy))
            {
                let e = degrade_round.entry(m.partition).or_insert(m.round);
                *e = (*e).min(m.round);
            }
            *s += 1;
        }
    }

    // Submit every op's flows in op order: each waits for every flow of
    // the ops it depends on. One scratch route serves every submission
    // (the simulator interns routes).
    let latency = net.hop_latency();
    let mut route: Vec<LinkIx> = Vec::new();
    let mut dep_flows: Vec<FlowId> = Vec::new();
    let mut op_flows: Vec<u32> = Vec::with_capacity(plan.ops.len() + 1);
    op_flows.push(0);
    let mut faults_injected = 0u64;
    let mut retries = 0u64;
    for (id, op) in plan.ops.iter().enumerate() {
        dep_flows.clear();
        for &d in &op.deps {
            dep_flows.extend(op_flows[d] as usize..op_flows[d + 1] as usize);
        }
        match &op.kind {
            OpKind::Transfer { src, dst, bytes } => {
                route.clear();
                if src != dst {
                    net.route_into(*src, *dst, &mut route);
                }
                let delay = latency * route.len() as f64;
                sim.submit_with_deps(0.0, delay, &route, *bytes, &dep_flows);
            }
            OpKind::Flush { .. } => {
                // Recovery cost of an injected transient fault: the
                // worker's failed attempts + backoffs, identical
                // arithmetic to the thread runtime's `FaultHint`
                // schedule. Degraded partitions stop paying from their
                // degrade round on (thread mode detects the exhausted
                // budget *before* the round and writes directly).
                let fault_delay = match (faults, seg_of_op.get(&id)) {
                    (Some(fp), Some(&(p, r, s)))
                        if degrade_round.get(&p).is_none_or(|&dr| r < dr) =>
                    {
                        match fp.flush_fault(p, r, s) {
                            Some(h) => {
                                faults_injected += h.fail_attempts as u64;
                                retries += h.fail_attempts as u64;
                                h.penalty(policy).as_secs_f64()
                            }
                            None => 0.0,
                        }
                    }
                    _ => 0.0,
                };
                for pf in storage.flows(id) {
                    route.clear();
                    let fabric_hops = storage.append_route(pf, &mut route);
                    let delay = pf.delay + latency * fabric_hops as f64 + fault_delay;
                    sim.submit_with_deps(0.0, delay, &route, pf.bytes, &dep_flows);
                }
            }
        }
        op_flows.push(sim.num_flows() as u32);
    }

    let program = FlowProgram {
        op_flows,
        faults_injected,
        retries,
        degraded: degrade_round.len() as u64,
    };
    Ok((program, sim))
}

/// Run `sim`, submitted by [`lower_plan`] from `plan` (or a clone of
/// such a simulator), to idle and fold the outcome into a
/// [`SimReport`].
fn run_submitted(plan: &ExecutionPlan, program: &FlowProgram, mut sim: Simulator) -> SimReport {
    let flows_of = |op: usize| program.op_flows[op] as usize..program.op_flows[op + 1] as usize;
    let elapsed = sim.run_to_idle();
    let mut op_finish: Vec<SimTime> = Vec::with_capacity(plan.ops.len());
    let mut transfers = 0;
    let mut flushes = 0;
    let mut last_transfer_finish: SimTime = 0.0;
    let mut last_flush_finish: SimTime = 0.0;
    for (id, op) in plan.ops.iter().enumerate() {
        let t = flows_of(id)
            .map(|f| sim.finish_time(f).expect("plan flows all complete"))
            .fold(0.0, f64::max);
        op_finish.push(t);
        match op.kind {
            OpKind::Transfer { .. } => {
                transfers += 1;
                last_transfer_finish = last_transfer_finish.max(t);
            }
            OpKind::Flush { .. } => {
                flushes += 1;
                last_flush_finish = last_flush_finish.max(t);
            }
        }
    }
    let bytes = plan.payload_bytes;
    SimReport {
        elapsed,
        bytes,
        bandwidth: if elapsed > 0.0 { bytes / elapsed } else { 0.0 },
        op_finish,
        transfers,
        flushes,
        last_transfer_finish,
        last_flush_finish,
        faults_injected: program.faults_injected,
        retries: program.retries,
        reelections: 0,
        degraded: program.degraded,
    }
}

/// One file group of a collective operation: the ranks writing one file
/// and their declarations (indexed locally, `decls[i]` belongs to
/// `ranks[i]`).
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// File id (e.g. the Pset index under subfiling).
    pub file: FileId,
    /// Global ranks participating, ascending.
    pub ranks: Vec<Rank>,
    /// Per-member declarations.
    pub decls: Vec<Vec<WriteDecl>>,
}

impl GroupSpec {
    /// Check that every member has a declaration list and that every
    /// rank exists on `machine`.
    ///
    /// # Errors
    /// [`TapiocaError::InvalidConfig`] naming the count mismatch or the
    /// highest rank beyond the machine.
    pub fn validate(&self, machine: &Machine) -> Result<()> {
        if self.ranks.len() != self.decls.len() {
            return Err(TapiocaError::InvalidConfig(format!(
                "group has {} ranks but {} declaration lists",
                self.ranks.len(),
                self.decls.len()
            )));
        }
        if let Some(&max_rank) = self.ranks.iter().max() {
            if max_rank >= machine.num_ranks() {
                return Err(TapiocaError::InvalidConfig(format!(
                    "spec rank {max_rank} exceeds the machine's {} ranks",
                    machine.num_ranks()
                )));
            }
        }
        Ok(())
    }
}

/// A full collective operation: one or more file groups plus direction.
#[derive(Debug, Clone)]
pub struct CollectiveSpec {
    /// File groups (one on Theta; one per Pset on Mira with subfiling).
    pub groups: Vec<GroupSpec>,
    /// Read or write.
    pub mode: AccessMode,
}

/// Per-group bookkeeping for trace emission: which plan ops belong to
/// the group, the group's partition-index offset in the global trace,
/// and each partition's election outcome mapped to global ranks.
#[cfg(feature = "trace")]
struct GroupTraceInfo {
    ops: std::ops::Range<usize>,
    partition_base: u32,
    /// Per partition: (lowest member, elected aggregator, total bytes),
    /// all global ranks; `None` for empty partitions.
    elections: Vec<Option<(Rank, Rank, u64)>>,
    /// Injected crashes: (crashed aggregator, standby, round), global
    /// ranks; `None` for partitions without one.
    crashes: Vec<Option<(Rank, Rank, u32)>>,
}

/// Project a completed simulation onto the trace schema: one `Elect`
/// event per partition at t=0, one `RmaPut` per transfer op and one
/// `Flush` per storage op, each stamped with its simulated completion
/// time. Put granularity is per (round, source node) — coarser than
/// thread mode's per-chunk events — which the structural projection
/// deliberately ignores.
#[cfg(feature = "trace")]
fn emit_sim_trace(
    tracer: &tapioca_trace::Tracer,
    plan: &ExecutionPlan,
    report: &SimReport,
    groups: &[GroupTraceInfo],
) {
    use tapioca_trace::{Phase, TraceEvent, TraceOp, NO_OFFSET, NO_PEER};
    for g in groups {
        for (p, e) in g.elections.iter().enumerate() {
            let Some((low, agg, bytes)) = *e else { continue };
            tracer.record(TraceEvent {
                t_ns: 0,
                rank: low,
                partition: g.partition_base + p as u32,
                round: 0,
                phase: Phase::Aggregation,
                op: TraceOp::Elect,
                bytes,
                offset: NO_OFFSET,
                peer: agg,
            });
            // Injected crash: demotion + standby re-election, recorded
            // on the lowest member's lane like thread mode does.
            if let Some((old, standby, cr)) = g.crashes[p] {
                for (op, peer) in [(TraceOp::Crash, old), (TraceOp::Reelect, standby)] {
                    tracer.record(TraceEvent {
                        t_ns: 0,
                        rank: low,
                        partition: g.partition_base + p as u32,
                        round: cr,
                        phase: Phase::Sync,
                        op,
                        bytes: 0,
                        offset: NO_OFFSET,
                        peer,
                    });
                }
            }
        }
        for id in g.ops.start..g.ops.end {
            let op = &plan.ops[id];
            let Some(m) = op.meta else { continue };
            let Some((_, agg, _)) = g.elections[m.partition as usize] else { continue };
            let t_ns = (report.op_finish[id] * 1e9).round() as u64;
            let partition = g.partition_base + m.partition;
            match op.kind {
                // Transfers model whole (round, source-node) batches, so
                // there is no single window offset to attribute.
                OpKind::Transfer { bytes, .. } => tracer.record(TraceEvent {
                    t_ns,
                    rank: agg,
                    partition,
                    round: m.round,
                    phase: Phase::Aggregation,
                    op: TraceOp::RmaPut,
                    bytes: bytes.round() as u64,
                    offset: NO_OFFSET,
                    peer: agg,
                }),
                OpKind::Flush { len, offset, .. } => tracer.record(TraceEvent {
                    t_ns,
                    rank: agg,
                    partition,
                    round: m.round,
                    phase: Phase::Io,
                    op: TraceOp::Flush,
                    bytes: len,
                    offset,
                    peer: NO_PEER,
                }),
            }
        }
    }
}

/// Everything both executors (and the static analyzer) agree on about
/// one file group *before* anything runs: the round schedule, the
/// election outcome, the compiled crashes, and each partition's degrade
/// round. [`run_tapioca_sim`] compiles this into a plan DAG; the
/// symbolic deriver in [`crate::analyze`] expands it into the predicted
/// event structure. Sharing the derivation ([`LayoutTable::plan_group`])
/// is what keeps the static schedule from drifting out from under the
/// executors.
#[derive(Debug)]
pub(crate) struct GroupPlan {
    /// The round schedule over group-local rank ids. Groups that declare
    /// the same layout share one (see [`LayoutTable`]): a schedule is a
    /// pure function of the declarations, the aggregator count and the
    /// buffer size, and the last two are fixed for a build.
    pub sched: Arc<Schedule>,
    /// Per partition: members as global ranks (parallel to
    /// `sched.partitions`).
    pub members_global: Vec<Vec<Rank>>,
    /// Elected aggregator per partition (index into the partition's
    /// members).
    pub choices: Vec<usize>,
    /// Compiled aggregator crashes (write mode only; unreachable or
    /// degrade-shadowed specs are dropped, matching the thread runtime).
    pub crashes: Vec<PlanCrash>,
    /// First round whose injected fault exhausts the retry budget, per
    /// partition (write mode only): the thread runtime falls back to
    /// direct writes from that round on.
    pub degrade_round: Vec<Option<u32>>,
}

/// The distinct declaration layouts of a spec's file groups, each
/// planned into one [`Schedule`] that every group of the layout shares
/// — under subfiling every Pset declares the same layout, so
/// `sim-mira-hacc` computes one schedule instead of 32.
///
/// Groups are keyed by a hash of their declarations, with equality
/// checked on a hash match. Whichever caller first plans a group of a
/// layout checks its extents and computes the schedule (later callers
/// of that layout wait on the slot's lock, then share the result); the
/// slot lets go of it once the layout's last group has been planned, so
/// a spec whose groups all differ keeps no schedule here at all. A
/// layout whose extents fail the check caches nothing: each of its
/// groups re-runs the check and gets the same error.
///
/// It spawns nothing: [`for_each_group_plan`] calls it from its lanes,
/// the static analyzer serially.
#[derive(Debug)]
pub(crate) struct LayoutTable<'s> {
    groups: &'s [GroupSpec],
    /// Layout index of each group.
    layout_of: Vec<usize>,
    slots: Vec<Mutex<LayoutSlot>>,
}

#[derive(Debug)]
struct LayoutSlot {
    /// The layout's schedule, from its first planned group until its
    /// last.
    sched: Option<Arc<Schedule>>,
    /// Groups of the layout not yet planned.
    pending: usize,
}

/// Hash of a group's declarations. Every layout match is confirmed by
/// equality, so this only has to separate layouts cheaply: one multiply
/// per declaration, none of them chained.
fn layout_hash(decls: &[Vec<WriteDecl>]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = decls.len() as u64;
    for (rank, rd) in decls.iter().enumerate() {
        h = h.wrapping_add((rank as u64 ^ ((rd.len() as u64) << 32)).wrapping_mul(K));
        for (var, d) in rd.iter().enumerate() {
            let x = d.offset ^ d.len.rotate_left(29) ^ ((var as u64) << 40) ^ rank as u64;
            h = h.wrapping_add(x.wrapping_mul(K).rotate_left(17));
        }
    }
    h
}

impl<'s> LayoutTable<'s> {
    /// Group `groups` by layout. Nothing is planned yet.
    pub(crate) fn new(groups: &'s [GroupSpec]) -> Self {
        // Hash -> layouts with that hash; a layout is named by its first
        // group.
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut first_group: Vec<usize> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        let mut layout_of = Vec::with_capacity(groups.len());
        for (g, group) in groups.iter().enumerate() {
            let same_hash = by_hash.entry(layout_hash(&group.decls)).or_default();
            let found = same_hash.iter().find(|&&l| groups[first_group[l]].decls == group.decls);
            let layout = match found {
                Some(&l) => l,
                None => {
                    same_hash.push(first_group.len());
                    first_group.push(g);
                    pending.push(0);
                    first_group.len() - 1
                }
            };
            pending[layout] += 1;
            layout_of.push(layout);
        }
        let slots = pending
            .into_iter()
            .map(|pending| Mutex::new(LayoutSlot { sched: None, pending }))
            .collect();
        LayoutTable { groups, layout_of, slots }
    }

    /// Shared planning of group `g`: schedule (shared with the other
    /// groups of its layout), election, crash compilation, degrade
    /// derivation. Pure — no simulator; every group is planned at most
    /// once per table.
    pub(crate) fn plan_group(
        &self,
        machine: &Machine,
        g: usize,
        cfg: &TapiocaConfig,
        mode: AccessMode,
    ) -> Result<GroupPlan> {
        let group = &self.groups[g];
        group.validate(machine)?;
        let sched = self.schedule(g, cfg)?;
        let io_nodes = machine.io_nodes_for(&group.ranks);
        let io = io_nodes.first().copied().unwrap_or(0);

        // Elect one aggregator per partition (node-folded); each election
        // is exactly the distributed MINLOC of thread mode.
        let (members_global, choices) =
            elect_schedule(machine, &sched, &group.ranks, io, cfg.strategy);

        // Per-partition fault rounds (write mode only, partition indices
        // are schedule-local like thread mode's) — the same pure derivation
        // every thread-mode member performs. The standby of a surviving
        // crash is the argmin of the same election costs (one exact vector
        // per crashed partition) with the dead candidate excluded, ties to
        // the lowest index — bit-identical to the thread runtime's MINLOC
        // with an infinite cost entry.
        let mut degrade_round: Vec<Option<u32>> = vec![None; sched.partitions.len()];
        let mut crashes: Vec<PlanCrash> = Vec::new();
        if let (Some(fp), AccessMode::Write) = (&cfg.faults, mode) {
            for part in &sched.partitions {
                let faults = part.fault_rounds(fp, &cfg.io_policy);
                degrade_round[part.index] = faults.degrade;
                let Some(round) = faults.crash else { continue };
                let election = PartitionElection {
                    members: &members_global[part.index],
                    weights: &part.member_bytes,
                    io,
                    partition_index: part.index,
                };
                let costs = election_costs(machine, &election, cfg.strategy);
                let standby = (0..costs.len())
                    .filter(|&idx| idx != choices[part.index])
                    .reduce(|best, idx| if costs[idx] < costs[best] { idx } else { best });
                if let Some(standby) = standby {
                    crashes.push(PlanCrash { partition: part.index, round, standby });
                }
            }
        }

        Ok(GroupPlan { sched, members_global, choices, crashes, degrade_round })
    }

    /// Group `g`'s schedule: computed by the first group of its layout,
    /// shared by the rest, dropped from the slot with the last.
    fn schedule(&self, g: usize, cfg: &TapiocaConfig) -> Result<Arc<Schedule>> {
        // A poisoned slot means a lane panicked, and the scope re-raises
        // that panic; the slot itself is never left half-written.
        let slot = &self.slots[self.layout_of[g]];
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let sched = match &slot.sched {
            Some(sched) => Arc::clone(sched),
            None => {
                let decls = &self.groups[g].decls;
                check_decl_extents(decls)?;
                let sched = Arc::new(compute_schedule(decls, ScheduleParams {
                    num_aggregators: cfg.num_aggregators,
                    buffer_size: cfg.buffer_size,
                    align_to_buffer: true,
                }));
                slot.sched = Some(Arc::clone(&sched));
                sched
            }
        };
        slot.pending -= 1;
        if slot.pending == 0 {
            slot.sched = None;
        }
        Ok(sched)
    }
}

/// Plan every file group of `spec` and show the plans to `consume`
/// strictly in group order — the one place set-up fans out.
///
/// Groups are independent and [`LayoutTable::plan_group`] is pure, so
/// with `W = min(cores, groups)` above 1, lane `w` plans groups `w, w +
/// W, ...`: lane 0 on the calling thread between its `consume` calls,
/// the others on scoped threads that lend each plan out over a channel
/// and take it back before planning their next group. A lane therefore
/// holds at most one plan, so no more than `W` threads are runnable and
/// no more than `W` group plans exist at once. Their schedules are
/// shared per layout: at most one schedule per layout with a group in
/// flight, each released by the table once its layout's last group has
/// been planned — so a spec whose groups all differ keeps the bound of
/// one schedule per lane, and one whose groups are all alike holds a
/// single schedule for the whole build. A plan is dropped by the lane
/// that made it, and a shared schedule is freed once, by whichever lane
/// drops its last owner — never by `consume`, which only borrows (a
/// schedule is a heap block per rank, one per round and three per
/// partition — 2,226 for a 2,048-rank HACC group; freeing them from the
/// consumer contends with the planner's allocator and made both sides
/// 2-4x slower). The first error in group order is returned, as in a
/// serial loop.
fn for_each_group_plan(
    machine: &Machine,
    spec: &CollectiveSpec,
    cfg: &TapiocaConfig,
    mut consume: impl FnMut(&GroupSpec, &GroupPlan),
) -> Result<()> {
    let groups = &spec.groups;
    let layouts = LayoutTable::new(groups);
    let plan = |g: usize| layouts.plan_group(machine, g, cfg, spec.mode);
    let lanes = if groups.len() < 2 {
        1
    } else {
        std::thread::available_parallelism().map_or(1, usize::from).min(groups.len())
    };
    std::thread::scope(|s| {
        let remote: Vec<_> = (1..lanes)
            .map(|w| {
                // One plan per lane is ever in transit, so neither
                // send blocks; only the receives wait.
                let (lend, borrowed) = sync_channel(1);
                let (give_back, returned) = sync_channel::<GroupPlan>(1);
                s.spawn(move || {
                    for g in (w..groups.len()).step_by(lanes) {
                        // Either end is gone once an earlier group
                        // failed: nobody wants the remaining plans.
                        let plan = plan(g);
                        let lent = plan.is_ok();
                        if lend.send(plan).is_err() || (lent && recv_handoff(&returned).is_err()) {
                            break;
                        }
                    }
                });
                (borrowed, give_back)
            })
            .collect();
        for (g, group) in groups.iter().enumerate() {
            match g % lanes {
                0 => consume(group, &plan(g)?),
                w => {
                    let (borrowed, give_back) = &remote[w - 1];
                    let gp = recv_handoff(borrowed).expect("group planner panicked")?;
                    consume(group, &gp);
                    give_back.send(gp).expect("group planner panicked");
                }
            }
        }
        Ok(())
    })
}

/// How long a lane polls for a hand-off before it sleeps. A hand-off is
/// due within one plan append (~0.2 ms for a 2,048-rank group), and
/// sleeping through it costs a wake-up that, on a virtualised host
/// whose other vCPU has gone idle, is longer than the wait: measured on
/// the 2-vCPU sandbox at 65,536 ranks, blocking receives made two lanes
/// (45 ms) slower than one (40 ms), polling holds 26 ms. The poll
/// yields rather than spins: when the guest scheduler has stacked both
/// lanes on one vCPU the other lane gets the core (46 ms, as blocking;
/// a pure spin burned its slice there, 57 ms), and with a core per lane
/// the yield returns at once.
const HANDOFF_POLL: Duration = Duration::from_micros(500);

/// `rx.recv()`, polling for [`HANDOFF_POLL`] before it blocks.
fn recv_handoff<T>(rx: &Receiver<T>) -> std::result::Result<T, RecvError> {
    let start = Instant::now();
    while start.elapsed() < HANDOFF_POLL {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    rx.recv()
}

/// Compile one planned group onto the end of `plan`; returns its op
/// range.
fn append_group(
    plan: &mut ExecutionPlan,
    machine: &Machine,
    group: &GroupSpec,
    gp: &GroupPlan,
    mode: AccessMode,
    pipelining: bool,
) -> std::ops::Range<usize> {
    let file = group.file;
    append_tapioca_plan(plan, &TapiocaPlanInput {
        schedule: &gp.sched,
        aggregator_choice: &gp.choices,
        node_of_rank: &|local| machine.node_of_rank(group.ranks[local]),
        file_of_partition: &|_| file,
        mode,
        pipelining,
        entry_deps: Vec::new(),
        wave_base: 0,
        crashes: gp.crashes.clone(),
    })
}

/// A reusable simulation session: everything about one collective spec
/// that does not change between epochs, kept alive so
/// weather-restart-style timestep loops re-execute the collective
/// without re-paying for it — the compiled plan DAG (schedule, election,
/// crash compilation, trace bookkeeping) from [`SimSession::build`], and
/// from the first [`SimSession::run_epoch`] on the plan lowered onto a
/// simulator that has not run (storage model registered, filesystem
/// waves planned, routes resolved, fault penalties charged, every flow
/// submitted), so a later epoch only clones that simulator and runs the
/// clone. The simulator-side mirror of the thread-mode
/// [`crate::api::Session`] epoch reuse, so the two executors keep the
/// same cost structure.
pub struct SimSession<'a> {
    profile: &'a MachineProfile,
    storage: StorageConfig,
    cfg: TapiocaConfig,
    plan: ExecutionPlan,
    /// `plan` lowered for the session's profile, storage and fault plan,
    /// beside the simulator it was submitted to, which never runs: each
    /// epoch runs a clone. `None` until the first epoch needs it.
    submitted: Option<(FlowProgram, Simulator)>,
    ncrashes: u64,
    #[cfg(feature = "trace")]
    group_infos: Vec<GroupTraceInfo>,
    epochs: u64,
}

impl std::fmt::Debug for SimSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("ops", &self.plan.ops.len())
            .field("ncrashes", &self.ncrashes)
            .field("epochs", &self.epochs)
            .finish()
    }
}

impl<'a> SimSession<'a> {
    /// Compile `spec` into a reusable execution plan: schedule, elect,
    /// compile crashes, and record trace bookkeeping. Pure planning —
    /// nothing is simulated until [`SimSession::run_epoch`].
    ///
    /// `cfg.num_aggregators` is interpreted *per file group*, matching
    /// the paper's "16 aggregators per Pset" phrasing.
    ///
    /// # Errors
    /// [`TapiocaError::InvalidConfig`] if the config fails validation or
    /// the spec is inconsistent (rank/declaration mismatch, ranks beyond
    /// the machine, a declaration whose `offset + len` overflows `u64`).
    pub fn build(
        profile: &'a MachineProfile,
        storage: &StorageConfig,
        spec: &CollectiveSpec,
        cfg: &TapiocaConfig,
    ) -> Result<SimSession<'a>> {
        cfg.validate()?;
        let machine = &profile.machine;
        let mut plan = ExecutionPlan::new();
        let mut ncrashes = 0u64;
        #[cfg(feature = "trace")]
        let mut group_infos: Vec<GroupTraceInfo> = Vec::new();
        #[cfg(feature = "trace")]
        let mut partition_base = 0u32;

        for_each_group_plan(machine, spec, cfg, |group, gp| {
            ncrashes += gp.crashes.len() as u64;
            let _op_range = append_group(&mut plan, machine, group, gp, spec.mode, cfg.pipelining);
            #[cfg(feature = "trace")]
            {
                let GroupPlan { sched, choices, crashes, .. } = gp;
                let elections = sched
                    .partitions
                    .iter()
                    .map(|part| {
                        if part.members.is_empty() {
                            None
                        } else {
                            Some((
                                group.ranks[part.members[0]],
                                group.ranks[part.members[choices[part.index]]],
                                part.total_bytes(),
                            ))
                        }
                    })
                    .collect();
                let crash_info = sched
                    .partitions
                    .iter()
                    .map(|part| {
                        crashes.iter().find(|c| c.partition == part.index).map(|c| {
                            (
                                group.ranks[part.members[choices[part.index]]],
                                group.ranks[part.members[c.standby]],
                                c.round,
                            )
                        })
                    })
                    .collect();
                group_infos.push(GroupTraceInfo {
                    ops: _op_range,
                    partition_base,
                    elections,
                    crashes: crash_info,
                });
                partition_base += sched.partitions.len() as u32;
            }
        })?;
        Ok(SimSession {
            profile,
            storage: *storage,
            cfg: cfg.clone(),
            plan,
            submitted: None,
            ncrashes,
            #[cfg(feature = "trace")]
            group_infos,
            epochs: 0,
        })
    }

    /// Execute the compiled plan once (one epoch / timestep). The first
    /// epoch lowers the plan onto a simulator and keeps it unrun (so
    /// `build` stays pure planning); every epoch runs a clone of it. The
    /// fault plan is part of what is lowered, so every epoch injects the
    /// identical faults — exactly like the thread runtime re-running a
    /// reused session.
    ///
    /// With the `trace` feature, a tracer in the session's config
    /// receives the simulated collective's events per epoch (see
    /// `emit_sim_trace`); size it for the machine's global rank count
    /// (`Tracer::new(machine.num_ranks())`).
    ///
    /// # Errors
    /// [`TapiocaError::InvalidConfig`] on a storage/profile kind
    /// mismatch.
    pub fn run_epoch(&mut self) -> Result<SimReport> {
        let (program, template) = match &self.submitted {
            Some(submitted) => submitted,
            None => self.submitted.insert(lower_plan(
                self.profile,
                &self.storage,
                &self.plan,
                self.cfg.faults.as_ref(),
                &self.cfg.io_policy,
            )?),
        };
        let mut report = run_submitted(&self.plan, program, template.clone());
        report.reelections += self.ncrashes;
        report.faults_injected += self.ncrashes;
        #[cfg(feature = "trace")]
        if let Some(tracer) = &self.cfg.tracer {
            emit_sim_trace(tracer, &self.plan, &report, &self.group_infos);
        }
        self.epochs += 1;
        Ok(report)
    }

    /// The compiled plan every epoch runs: the one round structure that
    /// other lowerings (the tier-aware executor) consume.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Epochs executed so far.
    pub fn epochs_completed(&self) -> u64 {
        self.epochs
    }
}

/// End-to-end TAPIOCA simulation: schedule, elect, compile, execute —
/// one [`SimSession`] built and run for a single epoch. Timestep loops
/// should build the session once and call [`SimSession::run_epoch`]
/// repeatedly instead.
///
/// # Errors
/// See [`SimSession::build`] and [`SimSession::run_epoch`].
pub fn run_tapioca_sim(
    profile: &MachineProfile,
    storage: &StorageConfig,
    spec: &CollectiveSpec,
    cfg: &TapiocaConfig,
) -> Result<SimReport> {
    SimSession::build(profile, storage, spec, cfg)?.run_epoch()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementStrategy;
    use tapioca_topology::{mira_profile, theta_profile, MIB};

    fn mira_spec(nodes: usize, ranks_per_node: usize, bytes_per_rank: u64) -> CollectiveSpec {
        // subfiling: one group per Pset of 128 nodes
        let rpp = 128 * ranks_per_node;
        let n_psets = nodes / 128;
        let groups = (0..n_psets)
            .map(|p| {
                let ranks: Vec<Rank> = (p * rpp..(p + 1) * rpp).collect();
                let decls = (0..rpp)
                    .map(|i| vec![WriteDecl { offset: i as u64 * bytes_per_rank, len: bytes_per_rank }])
                    .collect();
                GroupSpec { file: p, ranks, decls }
            })
            .collect();
        CollectiveSpec { groups, mode: AccessMode::Write }
    }

    fn theta_spec(nodes: usize, ranks_per_node: usize, bytes_per_rank: u64) -> CollectiveSpec {
        let n = nodes * ranks_per_node;
        let ranks: Vec<Rank> = (0..n).collect();
        let decls = (0..n)
            .map(|i| vec![WriteDecl { offset: i as u64 * bytes_per_rank, len: bytes_per_rank }])
            .collect();
        CollectiveSpec {
            groups: vec![GroupSpec { file: 0, ranks, decls }],
            mode: AccessMode::Write,
        }
    }

    #[test]
    fn mira_small_sim_produces_positive_bandwidth() {
        let profile = mira_profile(128, 4);
        let spec = mira_spec(128, 4, MIB);
        let cfg = TapiocaConfig {
            num_aggregators: 8,
            buffer_size: 4 * MIB,
            ..Default::default()
        };
        let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
        let rep = run_tapioca_sim(&profile, &storage, &spec, &cfg).unwrap();
        assert!(rep.elapsed > 0.0);
        assert_eq!(rep.bytes, (128 * 4) as f64 * MIB as f64);
        assert!(rep.bandwidth > 0.0);
        // cannot exceed the Pset ceiling (2 bridge links of 1.8 GiB/s)
        let ceiling = 3.6 * (1u64 << 30) as f64;
        assert!(rep.bandwidth <= ceiling * 1.001, "bw {} above physics", rep.bandwidth);
    }

    /// Every field of two reports, times compared bit for bit.
    fn assert_reports_equal(got: &SimReport, want: &SimReport, what: &str) {
        let bits = |r: &SimReport| r.op_finish.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.elapsed.to_bits(), want.elapsed.to_bits(), "{what}: elapsed");
        assert_eq!(bits(got), bits(want), "{what}: op finish times");
        assert_eq!(got.bytes.to_bits(), want.bytes.to_bits(), "{what}: bytes");
        assert_eq!(got.bandwidth.to_bits(), want.bandwidth.to_bits(), "{what}: bandwidth");
        assert_eq!((got.transfers, got.flushes), (want.transfers, want.flushes), "{what}: op counts");
        assert_eq!(
            got.last_transfer_finish.to_bits(),
            want.last_transfer_finish.to_bits(),
            "{what}: last transfer"
        );
        assert_eq!(
            got.last_flush_finish.to_bits(),
            want.last_flush_finish.to_bits(),
            "{what}: last flush"
        );
        assert_eq!(
            (got.faults_injected, got.retries, got.reelections, got.degraded),
            (want.faults_injected, want.retries, want.reelections, want.degraded),
            "{what}: fault accounting"
        );
    }

    /// A session's epochs run clones of the simulator it lowered the
    /// plan onto once; they must equal what lowering afresh gives —
    /// `run_tapioca_sim` on the spec and `simulate_faulty` on the
    /// session's plan — in every report field, with and without faults,
    /// in both directions, on both machines.
    #[test]
    fn sim_session_epochs_are_deterministic_and_match_one_shot() {
        use tapioca_mpi::FaultSpec;
        // An aggregator crash, transient flush faults everywhere (a few
        // long enough to exhaust the retry budget), a stall that is
        // certain to exhaust partition 2's at round 1, and a degraded
        // fabric.
        let faults = FaultPlan::seeded(11)
            .with(FaultSpec::AggregatorCrash { partition: 1, round: 1 })
            .with(FaultSpec::TransientFlushError { probability: 0.3 })
            .with(FaultSpec::FlushStall { partition: 2, round: 1 })
            .with(FaultSpec::LinkDegrade { factor: 0.5 });
        let mira = (
            mira_profile(256, 4),
            StorageConfig::Gpfs(GpfsTunables::mira_optimized()),
            mira_spec(256, 4, MIB),
            TapiocaConfig { num_aggregators: 8, buffer_size: MIB, ..Default::default() },
        );
        let theta = (
            theta_profile(64, 4),
            StorageConfig::Lustre(LustreTunables::theta_optimized()),
            theta_spec(64, 4, MIB),
            TapiocaConfig { num_aggregators: 8, buffer_size: 8 * MIB, ..Default::default() },
        );
        for (machine, (profile, storage, spec, base)) in [("mira", mira), ("theta", theta)] {
            for mode in [AccessMode::Write, AccessMode::Read] {
                for faulty in [false, true] {
                    let what = format!("{machine} {mode:?} faults={faulty}");
                    let spec = CollectiveSpec { mode, ..spec.clone() };
                    let cfg =
                        TapiocaConfig { faults: faulty.then(|| faults.clone()), ..base.clone() };
                    #[cfg(feature = "trace")]
                    let tracer = tapioca_trace::Tracer::new(profile.machine.num_ranks());
                    #[cfg(feature = "trace")]
                    let cfg = TapiocaConfig { tracer: Some(tracer.clone()), ..cfg };

                    let one_shot = run_tapioca_sim(&profile, &storage, &spec, &cfg).unwrap();
                    #[cfg(feature = "trace")]
                    let want_events = tracer.drain();
                    let mut session = SimSession::build(&profile, &storage, &spec, &cfg).unwrap();
                    // `simulate_faulty` knows nothing of the session's
                    // compiled crashes; `run_epoch` accounts for them.
                    let mut lowered_afresh = simulate_faulty(
                        &profile,
                        &storage,
                        &session.plan,
                        cfg.faults.as_ref(),
                        &cfg.io_policy,
                    )
                    .unwrap();
                    lowered_afresh.reelections += session.ncrashes;
                    lowered_afresh.faults_injected += session.ncrashes;
                    assert_reports_equal(&lowered_afresh, &one_shot, &format!("{what}: simulate"));
                    if !faulty {
                        let plain = simulate(&profile, &storage, &session.plan).unwrap();
                        assert_reports_equal(&plain, &one_shot, &format!("{what}: plain simulate"));
                    }
                    if faulty && mode == AccessMode::Write {
                        // The plan really exercises every fault kind.
                        assert_eq!(one_shot.reelections, spec.groups.len() as u64, "{what}");
                        assert!(one_shot.degraded >= 1, "{what}");
                        assert!(one_shot.retries > 0, "{what}");
                    }

                    for epoch in 1..=3 {
                        let rep = session.run_epoch().unwrap();
                        assert_reports_equal(&rep, &one_shot, &format!("{what}: epoch {epoch}"));
                        #[cfg(feature = "trace")]
                        {
                            let events = tracer.drain();
                            assert!(!events.is_empty(), "{what}: epoch {epoch} traced nothing");
                            assert_eq!(events, want_events, "{what}: epoch {epoch} trace");
                        }
                    }
                    assert_eq!(session.epochs_completed(), 3);
                }
            }
        }
    }

    /// Plan `group` on a table of its own, so its schedule is computed
    /// for it alone.
    fn plan_alone(machine: &Machine, group: &GroupSpec, cfg: &TapiocaConfig) -> Result<GroupPlan> {
        LayoutTable::new(std::slice::from_ref(group)).plan_group(machine, 0, cfg, AccessMode::Write)
    }

    /// Five Pset groups of 256 ranks × 1 MiB whose layouts run A, B, A,
    /// A, B: a B group is an A group whose last declaration is 5 MiB
    /// instead of 1 MiB, so the two differ in one declaration's `len`.
    /// That widens B's span, so its partitions are longer and its last
    /// one has only two rounds.
    fn abaab_spec() -> CollectiveSpec {
        let mut spec = mira_spec(1024, 2, MIB);
        spec.groups.truncate(5);
        for g in [1, 4] {
            spec.groups[g].decls[255][0].len = 5 * MIB;
        }
        spec
    }

    /// The first error of a serial loop over the groups, each planned
    /// alone.
    fn first_error_alone(machine: &Machine, spec: &CollectiveSpec, cfg: &TapiocaConfig) -> String {
        let err = spec.groups.iter().find_map(|g| plan_alone(machine, g, cfg).err());
        err.expect("some group fails").to_string()
    }

    #[test]
    fn fanned_out_build_equals_planning_groups_one_at_a_time() {
        // More groups than lanes on a 2-4 core host, two layouts, and a
        // crash in the plan so standby election and crash compilation
        // cross the lanes too. A fault plan names schedule-local
        // partitions, so every group of a layout crashes alike: round 5
        // of partition 7 exists in the A groups only.
        let profile = mira_profile(1024, 2);
        let machine = &profile.machine;
        let spec = abaab_spec();
        let cfg = TapiocaConfig {
            num_aggregators: 8,
            buffer_size: 4 * MIB,
            faults: Some(
                FaultPlan::seeded(7)
                    .with(tapioca_mpi::FaultSpec::AggregatorCrash { partition: 7, round: 5 }),
            ),
            ..Default::default()
        };
        let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
        let layout = [0, 1, 0, 0, 1];
        assert_eq!(LayoutTable::new(&spec.groups).layout_of, layout);

        let alone: Vec<GroupPlan> =
            spec.groups.iter().map(|g| plan_alone(machine, g, &cfg).unwrap()).collect();
        let crashed: Vec<usize> = alone.iter().map(|gp| gp.crashes.len()).collect();
        assert_eq!(crashed, [1, 0, 1, 1, 0], "the crash hits the A groups only");
        let mut serial = ExecutionPlan::new();
        for (group, gp) in spec.groups.iter().zip(&alone) {
            append_group(&mut serial, machine, group, gp, spec.mode, cfg.pipelining);
        }
        let mut want =
            simulate_faulty(&profile, &storage, &serial, cfg.faults.as_ref(), &cfg.io_policy)
                .unwrap();
        want.reelections += 3;
        want.faults_injected += 3;

        for run in 0..2 {
            let mut scheds: Vec<Arc<Schedule>> = Vec::new();
            for_each_group_plan(machine, &spec, &cfg, |group, gp| {
                let one = &alone[scheds.len()];
                assert_eq!(group.file, scheds.len(), "run {run}: group order");
                assert_eq!(*gp.sched, *one.sched, "run {run}: schedule of group {}", group.file);
                assert_eq!(gp.members_global, one.members_global, "run {run}");
                assert_eq!(gp.choices, one.choices, "run {run}: choices");
                assert_eq!(gp.crashes, one.crashes, "run {run}: crashes");
                assert_eq!(gp.degrade_round, one.degrade_round, "run {run}");
                scheds.push(Arc::clone(&gp.sched));
            })
            .unwrap();
            for (a, sa) in scheds.iter().enumerate() {
                for (b, sb) in scheds.iter().enumerate() {
                    let shared = Arc::ptr_eq(sa, sb);
                    assert_eq!(shared, layout[a] == layout[b], "run {run}: groups {a} and {b}");
                }
            }

            let mut session = SimSession::build(&profile, &storage, &spec, &cfg).unwrap();
            assert_eq!(session.plan.ops, serial.ops, "run {run}: plan ops differ");
            assert_eq!(session.ncrashes, 3);
            let got = session.run_epoch().unwrap();
            assert_reports_equal(&got, &want, &format!("run {run}"));
        }

        // A bad rank in a later group of a shared layout, and a second
        // error after it: the build reports the first in group order,
        // as a serial loop does.
        let mut bad = spec.clone();
        bad.groups[3].ranks[0] = machine.num_ranks();
        bad.groups[4].ranks.pop();
        let err = SimSession::build(&profile, &storage, &bad, &cfg).unwrap_err().to_string();
        assert!(err.contains("spec rank"), "{err}");
        assert_eq!(err, first_error_alone(machine, &bad, &cfg));
        // An overflowing extent in a shared layout: its first group's
        // error, as when planned alone.
        let mut bad = spec.clone();
        bad.groups[1].decls[7][0] = WriteDecl { offset: u64::MAX - 10, len: 100 };
        bad.groups[4].decls[7][0] = WriteDecl { offset: u64::MAX - 10, len: 100 };
        let err = SimSession::build(&profile, &storage, &bad, &cfg).unwrap_err().to_string();
        assert!(err.contains("declaration 0 of rank 7 overflows"), "{err}");
        assert_eq!(err, first_error_alone(machine, &bad, &cfg));
    }

    /// The memory bound: with all-distinct layouts, the table lets go of
    /// each schedule as its only group is planned, so the plan a lane
    /// lends out is the schedule's one owner.
    #[test]
    fn distinct_layouts_keep_no_schedule_in_the_table() {
        let profile = mira_profile(1024, 2);
        let mut spec = mira_spec(1024, 2, MIB);
        for (g, group) in spec.groups.iter_mut().enumerate() {
            group.decls[255][0].len = MIB + g as u64;
        }
        let cfg = TapiocaConfig { num_aggregators: 8, buffer_size: 4 * MIB, ..Default::default() };
        let mut seen = 0;
        for_each_group_plan(&profile.machine, &spec, &cfg, |_, gp| {
            assert_eq!(Arc::strong_count(&gp.sched), 1, "group {seen}");
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, spec.groups.len());
    }

    #[test]
    fn theta_small_sim_runs() {
        let profile = theta_profile(64, 4);
        let spec = theta_spec(64, 4, MIB);
        let cfg = TapiocaConfig {
            num_aggregators: 16,
            buffer_size: 8 * MIB,
            ..Default::default()
        };
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let rep = run_tapioca_sim(&profile, &storage, &spec, &cfg).unwrap();
        assert!(rep.elapsed > 0.0 && rep.bandwidth > 0.0);
    }

    #[test]
    fn pipelining_is_not_slower() {
        let profile = mira_profile(128, 4);
        let spec = mira_spec(128, 4, MIB);
        let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
        let base = TapiocaConfig { num_aggregators: 8, buffer_size: 4 * MIB, ..Default::default() };
        let on = run_tapioca_sim(&profile, &storage, &spec, &base).unwrap();
        let off = run_tapioca_sim(&profile, &storage, &spec, &TapiocaConfig {
            pipelining: false,
            ..base
        })
        .unwrap();
        assert!(on.elapsed <= off.elapsed * 1.0001,
            "pipelining must not hurt: {} vs {}", on.elapsed, off.elapsed);
    }

    #[test]
    fn topology_aware_not_worse_than_worst_case() {
        let profile = mira_profile(128, 4);
        let spec = mira_spec(128, 4, MIB / 4);
        let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
        let base = TapiocaConfig { num_aggregators: 8, buffer_size: MIB, ..Default::default() };
        let ta = run_tapioca_sim(&profile, &storage, &spec, &base).unwrap();
        let worst = run_tapioca_sim(&profile, &storage, &spec, &TapiocaConfig {
            strategy: PlacementStrategy::WorstCase,
            ..base
        })
        .unwrap();
        assert!(ta.elapsed <= worst.elapsed * 1.0001);
    }

    #[test]
    fn read_mode_simulates() {
        let profile = theta_profile(32, 4);
        let mut spec = theta_spec(32, 4, MIB);
        spec.mode = AccessMode::Read;
        let cfg = TapiocaConfig { num_aggregators: 8, buffer_size: 8 * MIB, ..Default::default() };
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let rep = run_tapioca_sim(&profile, &storage, &spec, &cfg).unwrap();
        assert!(rep.bandwidth > 0.0);
    }

    #[test]
    fn phase_breakdown_is_consistent() {
        let profile = theta_profile(32, 4);
        let spec = theta_spec(32, 4, MIB);
        let cfg = TapiocaConfig { num_aggregators: 8, buffer_size: 8 * MIB, ..Default::default() };
        let storage = StorageConfig::Lustre(LustreTunables::theta_optimized());
        let rep = run_tapioca_sim(&profile, &storage, &spec, &cfg).unwrap();
        assert!(rep.transfers > 0 && rep.flushes > 0);
        assert_eq!(rep.transfers + rep.flushes, rep.op_finish.len());
        // writes end at the storage: the last flush defines the makespan
        assert!((rep.last_flush_finish - rep.elapsed).abs() < 1e-9);
        assert!(rep.last_transfer_finish <= rep.elapsed);
    }

    #[test]
    fn overflowing_declaration_is_rejected_at_build() {
        let profile = mira_profile(128, 4);
        let mut spec = mira_spec(128, 4, 1024);
        spec.groups[0].decls[7] = vec![WriteDecl { offset: u64::MAX - 10, len: 100 }];
        let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() };
        let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
        let err = SimSession::build(&profile, &storage, &spec, &cfg).unwrap_err();
        assert!(matches!(err, TapiocaError::InvalidConfig(_)));
        assert!(err.to_string().contains("declaration 0 of rank 7 overflows"), "{err}");
    }

    #[test]
    fn mismatched_storage_kind_errors() {
        let profile = mira_profile(128, 4);
        let spec = mira_spec(128, 4, 1024);
        let cfg = TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() };
        let err = run_tapioca_sim(
            &profile,
            &StorageConfig::Lustre(LustreTunables::theta_optimized()),
            &spec,
            &cfg,
        )
        .unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }
}
