//! Layer probes: the benchmark calls each layer's public functions
//! itself, on the workload's own inputs (same declarations, rank count,
//! sizes and topology), and times them. Traced runs only.
//!
//! A time taken inside `Runtime::run` is reduced over ranks by max per
//! repetition (a collective ends with its slowest rank), then by median
//! over repetitions.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use tapioca::placement::{elect_partitions, PartitionElection};
use tapioca::plan::{append_tapioca_plan, ExecutionPlan, OpKind, TapiocaPlanInput};
use tapioca::schedule::{compute_coalesce_plan, RankStreamPlan};
use tapioca::sim_exec::{simulate, GroupSpec, SimReport, StorageConfig};
use tapioca::{compute_schedule, Schedule, ScheduleParams, TapiocaConfig};
use tapioca_mpi::{Comm, Runtime, SharedFile, Window};
use tapioca_netsim::{max_min_rates, Simulator};
use tapioca_pfs::{FlushReq, GpfsModel, LustreModel};
use tapioca_topology::{
    LinkIx, Machine, NodeId, NodeMetricCache, StorageProfile, TopologyProvider, GIB,
};

use crate::metrics::Metrics;
use crate::stats::median;
use crate::workloads::{SimWorkload, ThreadWorkload};

/// Repetitions of a probe that runs inside one `Runtime::run` (every
/// rank must agree on the count, so it cannot be cut short by a clock).
const COLLECTIVE_REPS: usize = 30;
/// `Window::allocate` and `open_shared` repetitions: each may cost a
/// large share of a second (see `mpi.rma.alloc_s` in the README).
const HEAVY_REPS: usize = 3;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of what `rep` returns, calling it until `budget` is spent but
/// at least 3 and at most 200 times.
fn boxed_median(budget: Duration, mut rep: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 200) {
        samples.push(rep());
    }
    median(&samples)
}

/// Per repetition the slowest rank, then the median over repetitions.
fn median_of_rank_max(per_rank: &[Vec<f64>]) -> f64 {
    let reps = per_rank[0].len();
    let slowest: Vec<f64> = (0..reps)
        .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0, f64::max))
        .collect();
    median(&slowest)
}

fn gibs(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / GIB as f64 / seconds
}

fn params(cfg: &TapiocaConfig) -> ScheduleParams {
    ScheduleParams {
        num_aggregators: cfg.num_aggregators,
        buffer_size: cfg.buffer_size,
        align_to_buffer: true,
    }
}

/// Time one collective at the workload's rank count.
fn collective(n: usize, op: impl Fn(&Comm, usize) + Sync) -> f64 {
    let per_rank = Runtime::run(n, |comm| {
        (0..COLLECTIVE_REPS)
            .map(|i| {
                comm.barrier();
                let t = Instant::now();
                op(&comm, i);
                secs(t)
            })
            .collect::<Vec<f64>>()
    });
    median_of_rank_max(&per_rank)
}

/// `mpi.runtime`, `mpi.comm`, `mpi.rma`, `mpi.file`: the thread runtime
/// at the workload's rank count, declaration payload, buffer and chunk
/// size.
fn runtime_probes(
    w: &ThreadWorkload,
    sched: &Schedule,
    dir: &Path,
    budget: Duration,
    m: &mut Metrics,
) {
    let n = w.decls.len();
    let b = w.cfg.buffer_size as usize;
    let chunk_lens: Vec<f64> = sched
        .chunks_by_rank
        .iter()
        .flatten()
        .map(|c| c.len as f64)
        .collect();
    let c = (median(&chunk_lens) as usize).clamp(1, b);

    m.set(
        "mpi.runtime.spawn_join_s",
        boxed_median(budget / 4, || {
            let t = Instant::now();
            Runtime::run(n, |_| ());
            secs(t)
        }),
    );

    let decl_bytes = w.decls[0].len() * 16;
    m.set(
        "mpi.comm.allgather_s",
        collective(n, |comm, _| {
            black_box(comm.allgather_bytes(vec![comm.rank() as u8; decl_bytes]));
        }),
    );
    m.set(
        "mpi.comm.minloc_s",
        collective(n, |comm, _| {
            black_box(comm.allreduce_min_loc(comm.rank() as f64));
        }),
    );
    m.set(
        "mpi.comm.barrier_s",
        collective(n, |comm, _| comm.barrier()),
    );
    // Every rank joins the partitions it is a member of, as a session's
    // cold epoch does. Keys are unique per (repetition, partition).
    m.set(
        "mpi.comm.subgroup_s",
        collective(n, |comm, rep| {
            for part in sched
                .partitions
                .iter()
                .filter(|p| p.members.contains(&comm.rank()))
            {
                let key = (1 << 40) + (rep * sched.partitions.len() + part.index) as u64;
                black_box(comm.subgroup(&part.members, key));
            }
        }),
    );

    // RMA. `alloc` and `get` use the read pipeline's window shape (one
    // member at buffer size, the rest 0), `put` and `fence` a window
    // every member sizes alike.
    let rma = Runtime::run(n, |comm| {
        let r = comm.rank();
        let slot = (r % (b / c)) * c;
        let chunk = vec![r as u8; c];
        let mut back = vec![0u8; c];
        let (mut alloc, mut get, mut put, mut fence) = (vec![], vec![], vec![], vec![]);
        for _ in 0..HEAVY_REPS {
            comm.barrier();
            let t = Instant::now();
            let win = Window::allocate(&comm, if r == 0 { b } else { 0 });
            alloc.push(secs(t));
            comm.barrier();
            let t = Instant::now();
            win.get_into(0, slot, &mut back);
            get.push(secs(t));
        }
        let win = Window::allocate(&comm, b);
        for _ in 0..COLLECTIVE_REPS {
            comm.barrier();
            let t = Instant::now();
            win.put(0, slot, &chunk);
            put.push(secs(t));
            comm.barrier();
            let t = Instant::now();
            win.fence(&comm);
            fence.push(secs(t));
        }
        black_box(back);
        [alloc, get, put, fence]
    });
    let column = |i: usize| rma.iter().map(|r| r[i].clone()).collect::<Vec<_>>();
    let flat = |i: usize| median(&column(i).concat());
    m.set("mpi.rma.alloc_s", median_of_rank_max(&column(0)));
    m.set("mpi.rma.get_s", flat(1));
    m.set("mpi.rma.get_gibs", gibs(c, flat(1)));
    m.set("mpi.rma.put_s", flat(2));
    m.set("mpi.rma.put_gibs", gibs(c, flat(2)));
    m.set("mpi.rma.fence_s", median_of_rank_max(&column(3)));

    // Files: collective open, then rank 0 alone writes and reads one
    // buffer through the file worker.
    let file = Runtime::run(n, |comm| {
        let mut open = vec![];
        let mut last = None;
        for i in 0..HEAVY_REPS {
            let path = dir.join(format!("probe-{i}"));
            comm.barrier();
            let t = Instant::now();
            last = Some(SharedFile::open_shared(&comm, &path));
            open.push(secs(t));
        }
        let (mut write, mut read) = (vec![], vec![]);
        if comm.rank() == 0 {
            let f = last.as_ref().expect("opened above");
            let mut buf = vec![0x5au8; b];
            let start = Instant::now();
            while write.len() < 3 || (start.elapsed() < budget / 4 && write.len() < 200) {
                let t = Instant::now();
                buf = f
                    .iwrite_at(0, buf)
                    .wait_reclaim()
                    .expect("probe write")
                    .expect("owned buffers come back");
                write.push(secs(t));
                let t = Instant::now();
                black_box(f.read_at(0, b).expect("probe read"));
                read.push(secs(t));
            }
        }
        comm.barrier();
        [open, write, read]
    });
    for i in 0..HEAVY_REPS {
        let _ = std::fs::remove_file(dir.join(format!("probe-{i}")));
    }
    let opens: Vec<Vec<f64>> = file.iter().map(|r| r[0].clone()).collect();
    m.set("mpi.file.open_s", median_of_rank_max(&opens));
    let (w_s, r_s) = (median(&file[0][1]), median(&file[0][2]));
    m.set("mpi.file.iwrite_wait_s", w_s);
    m.set("mpi.file.write_gibs", gibs(b, w_s));
    m.set("mpi.file.read_at_s", r_s);
    m.set("mpi.file.read_gibs", gibs(b, r_s));
}

/// What `core.schedule` and `core.placement` produced for one group.
struct Planned {
    sched: Schedule,
    members_global: Vec<Vec<usize>>,
    choices: Vec<usize>,
}

/// `core.schedule`, `core.placement`, `topology`: the planning every
/// session pays, over the workload's file groups.
fn planning_probes(
    machine: &Machine,
    groups: &[GroupSpec],
    cfg: &TapiocaConfig,
    budget: Duration,
    m: &mut Metrics,
) -> Vec<Planned> {
    let mut scheds = Vec::new();
    m.set(
        "core.schedule.compute_s",
        boxed_median(budget, || {
            let t = Instant::now();
            scheds = groups
                .iter()
                .map(|g| compute_schedule(&g.decls, params(cfg)))
                .collect();
            secs(t)
        }),
    );
    let parts = || scheds.iter().flat_map(|s: &Schedule| &s.partitions);
    m.set("core.schedule.partitions", parts().count() as f64);
    m.set(
        "core.schedule.rounds",
        parts().map(|p| p.rounds.len()).sum::<usize>() as f64,
    );
    m.set(
        "core.schedule.chunks",
        scheds
            .iter()
            .flat_map(|s| &s.chunks_by_rank)
            .map(Vec::len)
            .sum::<usize>() as f64,
    );
    m.set(
        "core.placement.members_max",
        parts().map(|p| p.members.len()).max().unwrap_or(0) as f64,
    );

    let members_global: Vec<Vec<Vec<usize>>> = groups
        .iter()
        .zip(&scheds)
        .map(|(g, s)| {
            s.partitions
                .iter()
                .map(|p| p.members.iter().map(|&l| g.ranks[l]).collect())
                .collect()
        })
        .collect();
    let mut choices: Vec<Vec<usize>> = Vec::new();
    m.set(
        "core.placement.elect_s",
        boxed_median(budget, || {
            let t = Instant::now();
            choices = groups
                .iter()
                .zip(&scheds)
                .zip(&members_global)
                .map(|((g, s), mg)| {
                    let io = machine.io_nodes_for(&g.ranks).first().copied().unwrap_or(0);
                    let elections: Vec<PartitionElection<'_>> = s
                        .partitions
                        .iter()
                        .zip(mg)
                        .map(|(p, members)| PartitionElection {
                            members,
                            weights: &p.member_bytes,
                            io,
                            partition_index: p.index,
                        })
                        .collect();
                    elect_partitions(machine, &elections, cfg.strategy)
                })
                .collect();
            secs(t)
        }),
    );
    let planned: Vec<Planned> = scheds
        .into_iter()
        .zip(members_global)
        .zip(choices)
        .map(|((sched, members_global), choices)| Planned {
            sched,
            members_global,
            choices,
        })
        .collect();

    // every distinct member node -> aggregator node pair
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for g in &planned {
        for (members, &choice) in g.members_global.iter().zip(&g.choices) {
            let agg = machine.node_of_rank(members[choice]);
            let mut nodes: Vec<NodeId> = members.iter().map(|&r| machine.node_of_rank(r)).collect();
            nodes.dedup();
            pairs.extend(nodes.into_iter().filter(|&s| s != agg).map(|s| (s, agg)));
        }
    }
    let net = machine.interconnect();
    let mut route: Vec<LinkIx> = Vec::new();
    let mut hops = 0usize;
    m.set(
        "topology.route_s",
        boxed_median(budget / 2, || {
            hops = 0;
            let t = Instant::now();
            for &(s, d) in &pairs {
                route.clear();
                net.route_into(s, d, &mut route);
                hops += black_box(&route).len();
            }
            secs(t)
        }),
    );
    m.set("topology.routes", pairs.len() as f64);
    m.set(
        "topology.hops_mean",
        hops as f64 / pairs.len().max(1) as f64,
    );
    m.set(
        "topology.pair_metric_s",
        boxed_median(budget / 2, || {
            let mut cache = NodeMetricCache::new(); // cold on every repetition
            let t = Instant::now();
            for &(s, d) in &pairs {
                black_box(cache.pair(machine, s, d));
            }
            secs(t)
        }),
    );
    planned
}

/// Every per-layer probe of a thread workload.
pub fn thread_probes(w: &ThreadWorkload, dir: &Path, budget: Duration, m: &mut Metrics) {
    let n = w.decls.len();
    let group = GroupSpec {
        file: 0,
        ranks: (0..n).collect(),
        decls: w.decls.clone(),
    };
    let planned = planning_probes(&w.profile.machine, &[group], &w.cfg, budget / 8, m);
    let sched = &planned[0].sched;
    m.set(
        "core.schedule.stream_plan_s",
        boxed_median(budget / 8, || {
            (0..n)
                .map(|r| {
                    let t = Instant::now();
                    black_box(RankStreamPlan::new(sched, r));
                    secs(t)
                })
                .fold(0.0, f64::max)
        }),
    );
    m.set(
        "core.schedule.coalesce_plan_s",
        boxed_median(budget / 8, || {
            let t = Instant::now();
            black_box(compute_coalesce_plan(sched, |rk| w.topo.node_of_rank(rk)));
            secs(t)
        }),
    );
    runtime_probes(w, sched, dir, budget / 2, m);
}

/// LNET gateway nodes as `tapioca::sim_exec` places them (private
/// there): 8 gateways spread evenly over the machine.
fn lnet_nodes(num_nodes: usize) -> Vec<NodeId> {
    let g = 8.min(num_nodes);
    (0..g)
        .map(|i| (i * num_nodes) / g + num_nodes / (2 * g))
        .collect()
}

/// Every per-layer probe of a simulator workload. `session_report` is a
/// `SimSession` epoch's report: `simulate` on the benchmark-built plan
/// must reproduce its elapsed time bit for bit. Returns whether it did.
pub fn sim_probes(
    w: &SimWorkload,
    session_report: &SimReport,
    budget: Duration,
    m: &mut Metrics,
) -> bool {
    let machine = &w.profile.machine;
    let net = machine.interconnect();
    let planned = planning_probes(machine, &w.spec.groups, &w.cfg, budget / 8, m);

    let mut plan = ExecutionPlan::new();
    m.set(
        "core.plan.append_s",
        boxed_median(budget / 8, || {
            plan = ExecutionPlan::new();
            let t = Instant::now();
            for (g, p) in w.spec.groups.iter().zip(&planned) {
                let file = g.file;
                append_tapioca_plan(
                    &mut plan,
                    &TapiocaPlanInput {
                        schedule: &p.sched,
                        aggregator_choice: &p.choices,
                        node_of_rank: &|local| machine.node_of_rank(g.ranks[local]),
                        file_of_partition: &|_| file,
                        mode: w.spec.mode,
                        pipelining: w.cfg.pipelining,
                        entry_deps: Vec::new(),
                        wave_base: 0,
                        crashes: Vec::new(),
                    },
                );
            }
            secs(t)
        }),
    );
    m.set("core.plan.ops", plan.len() as f64);

    let mut report = None;
    m.set(
        "core.sim_exec.simulate_s",
        boxed_median(budget / 4, || {
            let t = Instant::now();
            report = Some(simulate(&w.profile, &w.storage, &plan).expect("simulate"));
            secs(t)
        }),
    );
    let same = report.is_some_and(|r| r.elapsed.to_bits() == session_report.elapsed.to_bits());
    if !same {
        eprintln!("FAIL: simulate() on the benchmark-built plan differs from SimSession's epoch");
    }

    // One round's fan-in: round 0 of every partition.
    let round0: Vec<(Vec<LinkIx>, f64)> = plan
        .ops
        .iter()
        .filter(|op| op.meta.is_some_and(|meta| meta.round == 0))
        .filter_map(|op| match op.kind {
            OpKind::Transfer { src, dst, bytes } if src != dst => {
                let mut route = Vec::new();
                net.route_into(src, dst, &mut route);
                Some((route, bytes))
            }
            _ => None,
        })
        .collect();
    let (mut steps, mut step_s) = (0u64, 0.0);
    m.set(
        "netsim.engine.round_run_s",
        boxed_median(budget / 8, || {
            let t = Instant::now();
            let mut sim = Simulator::from_interconnect(net);
            for (route, bytes) in &round0 {
                sim.submit(0.0, route, *bytes);
            }
            let stepping = Instant::now();
            steps = 0;
            while sim.step() {
                steps += 1;
            }
            step_s = secs(stepping);
            secs(t)
        }),
    );
    m.set("netsim.engine.flows", round0.len() as f64);
    m.set("netsim.engine.steps", steps as f64);
    m.set("netsim.engine.steps_per_s", steps as f64 / step_s);
    let routes: Vec<&[LinkIx]> = round0.iter().map(|(r, _)| r.as_slice()).collect();
    m.set(
        "netsim.fairshare.max_min_s",
        boxed_median(budget / 8, || {
            let t = Instant::now();
            black_box(max_min_rates(&routes, |l| net.link(l).capacity));
            secs(t)
        }),
    );

    // One round's flushes through the filesystem model: the first wave.
    let flush = |op: &tapioca::plan::Op| match op.kind {
        OpKind::Flush {
            src,
            file,
            offset,
            len,
            mode,
            wave,
        } => Some((
            wave,
            FlushReq {
                src_node: src,
                file,
                offset,
                len,
                mode,
            },
        )),
        OpKind::Transfer { .. } => None,
    };
    let all: Vec<(u64, FlushReq)> = plan.ops.iter().filter_map(flush).collect();
    let first_wave = all.iter().map(|(wave, _)| *wave).min().unwrap_or(0);
    let wave: Vec<FlushReq> = all
        .iter()
        .filter(|(v, _)| *v == first_wave)
        .map(|(_, r)| *r)
        .collect();
    let all: Vec<FlushReq> = all.into_iter().map(|(_, r)| r).collect();
    let mut sim = Simulator::from_interconnect(net);
    let mut planned_flows = 0;
    let plan_wave_s = match (&w.profile.storage, &w.storage) {
        (
            &StorageProfile::Gpfs {
                ion_link_bw,
                ion_service_bw,
            },
            StorageConfig::Gpfs(tun),
        ) => {
            let torus = machine.fabric().as_torus().expect("GPFS implies a torus");
            let per_pset = torus.pset_config().expect("psets").nodes_per_pset;
            let mut model = GpfsModel::new(
                &mut sim,
                torus.num_psets(),
                ion_link_bw,
                ion_service_bw,
                *tun,
            );
            model.register_operation(&all);
            boxed_median(budget / 8, || {
                let t = Instant::now();
                planned_flows = black_box(model.plan_wave(&wave, |node| node / per_pset)).len();
                secs(t)
            })
        }
        (
            &StorageProfile::Lustre {
                total_osts,
                ost_write_bw,
                ost_read_bw,
                lnet_bw,
            },
            StorageConfig::Lustre(tun),
        ) => {
            let gateways = lnet_nodes(net.num_nodes());
            let mut model = LustreModel::new(
                &mut sim,
                total_osts,
                ost_write_bw,
                ost_read_bw,
                lnet_bw,
                gateways,
                *tun,
            );
            model.register_operation(&all);
            boxed_median(budget / 8, || {
                let t = Instant::now();
                planned_flows = black_box(model.plan_wave(&wave)).len();
                secs(t)
            })
        }
        _ => panic!("storage config does not match the machine profile"),
    };
    m.set("pfs.plan_wave_s", plan_wave_s);
    m.set("pfs.planned_flows", planned_flows as f64);
    same
}
