//! `checksim` — replay recorded pipeline traces through the
//! `tapioca-check` protocol checker.
//!
//! ```text
//! Usage:
//!   checksim FILE.jsonl...        check traces dumped with --trace-out
//!   checksim --suite              run the trace-equivalence workloads on
//!                                 BOTH executors and check every trace
//!   checksim --perturb N          run the thread pipeline under N seeded
//!                                 schedule perturbations, checking each
//!                                 interleaving's trace
//!   --seed-base S                 first perturbation seed      [1]
//!   --faults                      also run the fault-injection recovery
//!                                 workloads (aggregator crash, transient
//!                                 flush errors) on both executors and
//!                                 check their recovery traces
//! ```
//!
//! Exit status is non-zero if any checked trace carries a violation, so
//! the binary doubles as a CI gate. Every violation is printed with its
//! machine-readable code and a human diagnosis.

use std::sync::Arc;

use tapioca::prelude::*;
use tapioca::sim_exec::{run_tapioca_sim, CollectiveSpec, GroupSpec, StorageConfig};
use tapioca_check::{check, parse_jsonl, Violation};
use tapioca_mpi::{FaultPlan, FaultSpec, Runtime, SharedFile};
use tapioca_pfs::{AccessMode, GpfsTunables, LustreTunables};
use tapioca_topology::{
    mira_profile, theta_profile, MachineProfile, Platform, TopologyProvider, KIB,
};
use tapioca_trace::{Trace, Tracer};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

/// One workload of the cross-executor suite — mirrors the configs the
/// `trace_equivalence` integration test pins.
struct Workload {
    name: &'static str,
    profile: MachineProfile,
    decls: Vec<Vec<WriteDecl>>,
    cfg: TapiocaConfig,
}

impl Workload {
    /// The file system the simulator pairs with the workload's machine.
    fn storage(&self) -> StorageConfig {
        match self.profile.platform {
            Platform::MiraBgq => StorageConfig::Gpfs(GpfsTunables::mira_optimized()),
            _ => StorageConfig::Lustre(LustreTunables::theta_optimized()),
        }
    }
}

fn suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "hacc-soa",
            profile: theta_profile(8, 2),
            decls: HaccIo { num_ranks: 16, particles_per_rank: 100, layout: Layout::StructOfArrays }
                .decls(),
            cfg: TapiocaConfig { num_aggregators: 4, buffer_size: 2048, ..Default::default() },
        },
        Workload {
            name: "hacc-aos",
            profile: theta_profile(4, 4),
            decls: HaccIo { num_ranks: 16, particles_per_rank: 80, layout: Layout::ArrayOfStructs }
                .decls(),
            cfg: TapiocaConfig { num_aggregators: 3, buffer_size: 1536, ..Default::default() },
        },
        Workload {
            name: "ior",
            profile: theta_profile(8, 2),
            decls: IorSpec { num_ranks: 16, bytes_per_rank: 4096 }.decls(),
            cfg: TapiocaConfig { num_aggregators: 4, buffer_size: 1024, ..Default::default() },
        },
        Workload {
            name: "ior-nopipe",
            profile: theta_profile(8, 2),
            decls: IorSpec { num_ranks: 16, bytes_per_rank: 2000 }.decls(),
            cfg: TapiocaConfig {
                num_aggregators: 2,
                buffer_size: 512,
                pipelining: false,
                ..Default::default()
            },
        },
        // 16 ranks on one node, 9 SoA variables of 8 KiB, 32 KiB rounds:
        // every rank is a member of both partitions but a round holds
        // the chunks of only 4 of them — the one shape here where most
        // members sit out most rounds, i.e. the one that exercises
        // running ahead.
        Workload {
            name: "hacc-soa-one-node",
            profile: mira_profile(128, 16),
            decls: (0..16)
                .map(|r| {
                    (0..9)
                        .map(|v| WriteDecl { offset: (v * 16 + r) * 8 * KIB, len: 8 * KIB })
                        .collect()
                })
                .collect(),
            cfg: TapiocaConfig { num_aggregators: 2, buffer_size: 32 * KIB, ..Default::default() },
        },
    ]
}

/// Fault-injected variants of the suite: the traces must still pass the
/// checker — recovery epochs (re-election) and retried flushes included.
fn fault_suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "ior-crash",
            profile: theta_profile(8, 2),
            decls: IorSpec { num_ranks: 16, bytes_per_rank: 4096 }.decls(),
            cfg: TapiocaConfig {
                num_aggregators: 4,
                buffer_size: 1024,
                faults: Some(
                    FaultPlan::seeded(11)
                        .with(FaultSpec::AggregatorCrash { partition: 1, round: 1 }),
                ),
                ..Default::default()
            },
        },
        Workload {
            name: "hacc-flaky",
            profile: theta_profile(8, 2),
            decls: HaccIo { num_ranks: 16, particles_per_rank: 100, layout: Layout::StructOfArrays }
                .decls(),
            cfg: TapiocaConfig {
                num_aggregators: 4,
                buffer_size: 2048,
                faults: Some(
                    FaultPlan::seeded(7)
                        .with(FaultSpec::TransientFlushError { probability: 0.4 }),
                ),
                ..Default::default()
            },
        },
    ]
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-checksim");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Simulator trace of one workload.
fn sim_trace(w: &Workload) -> Trace {
    let tracer = Tracer::new(w.profile.machine.num_ranks());
    let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..w.cfg.clone() };
    let spec = CollectiveSpec {
        groups: vec![GroupSpec {
            file: 0,
            ranks: (0..w.decls.len()).collect(),
            decls: w.decls.clone(),
        }],
        mode: AccessMode::Write,
    };
    run_tapioca_sim(&w.profile, &w.storage(), &spec, &cfg).expect("simulation failed");
    tracer.drain()
}

/// Thread-mode trace of one workload; `seed` enables schedule
/// perturbation for that seed.
fn thread_trace(w: &Workload, label: &str, seed: Option<u64>) -> Trace {
    let n = w.decls.len();
    let tracer = Tracer::new(w.profile.machine.num_ranks());
    let cfg = TapiocaConfig { tracer: Some(Arc::clone(&tracer)), ..w.cfg.clone() };
    let machine = Arc::new(w.profile.machine.clone());
    let path = tmp(label);
    let decls = w.decls.clone();
    let path2 = path.clone();
    let body = move |comm: tapioca_mpi::Comm| {
        let file = SharedFile::open_shared(&comm, &path2);
        let mine = decls[comm.rank()].clone();
        let mut io = Session::builder(&comm, file)
            .declarations(mine.clone())
            .config(cfg.clone())
            .topology(machine.clone())
            .build()
            .expect("init failed");
        for d in &mine {
            io.write(d.offset, &vec![0xC3u8; d.len as usize]).expect("write failed");
        }
        io.finalize();
    };
    match seed {
        Some(s) => Runtime::run_perturbed(n, s, body),
        None => Runtime::run(n, body),
    };
    std::fs::remove_file(&path).ok();
    tracer.drain()
}

/// Check one trace, print the verdict, and return the violation count.
fn report(label: &str, trace: &Trace) -> usize {
    let violations: Vec<Violation> = check(trace);
    if violations.is_empty() {
        println!("{label}: OK ({} events)", trace.len());
    } else {
        println!("{label}: {} violation(s)", violations.len());
        for v in &violations {
            println!("  {v}");
        }
    }
    violations.len()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut run_suite = false;
    let mut with_faults = false;
    let mut perturb: Option<u64> = None;
    let mut seed_base = 1u64;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--suite" => run_suite = true,
            "--faults" => with_faults = true,
            "--perturb" => {
                i += 1;
                perturb = Some(argv.get(i).expect("--perturb N").parse().expect("seed count"));
            }
            "--seed-base" => {
                i += 1;
                seed_base = argv.get(i).expect("--seed-base S").parse().expect("seed base");
            }
            "--help" | "-h" => {
                println!("see the module docs at the top of checksim.rs");
                return;
            }
            other if other.starts_with("--") => panic!("unknown option {other}"),
            file => files.push(std::path::PathBuf::from(file)),
        }
        i += 1;
    }
    if files.is_empty() && !run_suite && !with_faults && perturb.is_none() {
        eprintln!("checksim: nothing to do — pass trace files, --suite, or --perturb N");
        std::process::exit(2);
    }

    let mut total = 0usize;
    for f in &files {
        let doc = std::fs::read_to_string(f)
            .unwrap_or_else(|e| panic!("read {}: {e}", f.display()));
        let trace = parse_jsonl(&doc).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        total += report(&f.display().to_string(), &trace);
    }

    if run_suite {
        println!("# cross-executor protocol suite");
        for w in &suite() {
            total += report(&format!("sim:{}", w.name), &sim_trace(w));
            let label = format!("thread:{}", w.name);
            total += report(&label, &thread_trace(w, &label, None));
        }
    }

    if with_faults {
        println!("# fault-injection recovery suite");
        for w in &fault_suite() {
            total += report(&format!("sim:{}", w.name), &sim_trace(w));
            let label = format!("thread:{}", w.name);
            total += report(&label, &thread_trace(w, &label, None));
        }
    }

    if let Some(n) = perturb {
        // Perturb the workloads that exercise pipelined flushing,
        // unpipelined flushing and running ahead; alternate to spread
        // the seed budget.
        println!("# schedule perturbation: {n} seeds starting at {seed_base}");
        let ws = suite();
        let targets = [&ws[0], &ws[3], &ws[4]];
        for k in 0..n {
            let seed = seed_base + k;
            let w = targets[(k % 3) as usize];
            let label = format!("perturb:{}:seed{}", w.name, seed);
            total += report(&label, &thread_trace(w, &label, Some(seed)));
        }
    }

    if total > 0 {
        eprintln!("checksim: {total} violation(s) found");
        std::process::exit(1);
    }
}
