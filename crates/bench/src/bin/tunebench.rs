//! Autotuner benchmark: runs the cost-model-guided search on the
//! paper's workloads (Mira/Theta × IOR/HACC × write/read) and writes
//! `BENCH_tune.json` at the repo root comparing tuned against
//! rule-based bandwidth, plus the search-work accounting that shows the
//! model pruning (≥4× fewer full simulations than the exhaustive grid).
//!
//! Usage:
//!
//! ```text
//! tunebench [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the workloads to CI-sized shapes while keeping the
//! output schema identical.
//!
//! Schema (`tapioca-tunebench/v3`):
//!
//! ```json
//! {
//!   "schema": "tapioca-tunebench/v3",
//!   "smoke": false,
//!   "rows": [ { "machine", "workload", "mode", "ranks",
//!               "rule_aggregators", "rule_buffer", "rule_bw",
//!               "tuned_aggregators", "tuned_buffer", "tuned_strategy",
//!               "tuned_pipelining", "tuned_tier", "tuned_bw",
//!               "grid_size", "model_evals", "sims_run",
//!               "sim_savings", "sim_wall_ms" } ]
//! }
//! ```
//!
//! `sim_wall_ms` is the wall time of the confirmation stage (the
//! short-list simulations) — the number the incremental rate engine is
//! expected to shrink. It is the one machine-dependent column; everything
//! else is deterministic.
//!
//! Every row satisfies `tuned_bw >= rule_bw` by construction (the
//! rule-based config is always in the confirmed short-list) — the CI
//! `tune-smoke` job asserts it anyway.

use std::fmt::Write as _;

use tapioca::autotune::autotune;
use tapioca::placement::PlacementStrategy;
use tapioca::sim_exec::{CollectiveSpec, StorageConfig};
use tapioca_bench::{hacc_mira, hacc_theta, ior_mira, ior_theta};
use tapioca_pfs::{AccessMode, GpfsTunables, LustreTunables};
use tapioca_topology::{mira_profile, theta_profile, MachineProfile, MIB};
use tapioca_workloads::hacc::Layout;

fn strategy_name(s: PlacementStrategy) -> &'static str {
    match s {
        PlacementStrategy::TopologyAware => "topology_aware",
        PlacementStrategy::RankOrder => "rank_order",
        PlacementStrategy::ShortestPathToIo => "shortest_path_to_io",
        PlacementStrategy::WorstCase => "worst_case",
        PlacementStrategy::Random { .. } => "random",
    }
}

fn mode_name(mode: AccessMode) -> &'static str {
    match mode {
        AccessMode::Write => "write",
        AccessMode::Read => "read",
    }
}

/// One benchmark case: a machine, its storage, and a workload spec.
struct Case {
    machine: &'static str,
    workload: &'static str,
    profile: MachineProfile,
    storage: StorageConfig,
    spec: CollectiveSpec,
}

fn cases(smoke: bool) -> Vec<Case> {
    // Mira shapes are Pset-quantized (128 nodes per Pset).
    let (mira_nodes, mira_rpn) = if smoke { (128, 4) } else { (256, 16) };
    let (theta_nodes, theta_rpn) = if smoke { (32, 4) } else { (128, 16) };
    let per_rank = if smoke { MIB } else { 8 * MIB };
    let particles = per_rank / 38; // HACC: 38 bytes per particle

    let mut out = Vec::new();
    for mode in [AccessMode::Write, AccessMode::Read] {
        out.push(Case {
            machine: "mira",
            workload: "ior",
            profile: mira_profile(mira_nodes, mira_rpn),
            storage: StorageConfig::Gpfs(GpfsTunables::mira_optimized()),
            spec: ior_mira(mira_nodes, mira_rpn, per_rank, mode),
        });
        out.push(Case {
            machine: "theta",
            workload: "ior",
            profile: theta_profile(theta_nodes, theta_rpn),
            storage: StorageConfig::Lustre(LustreTunables::theta_optimized()),
            spec: ior_theta(theta_nodes, theta_rpn, per_rank, mode),
        });
        // The HACC builders fix Write mode; flip it for the read rows
        // (a restart reads the same declared layout back).
        let mut hm = hacc_mira(mira_nodes, mira_rpn, particles, Layout::ArrayOfStructs);
        hm.mode = mode;
        out.push(Case {
            machine: "mira",
            workload: "hacc",
            profile: mira_profile(mira_nodes, mira_rpn),
            storage: StorageConfig::Gpfs(GpfsTunables::mira_optimized()),
            spec: hm,
        });
        let mut ht = hacc_theta(theta_nodes, theta_rpn, particles, Layout::ArrayOfStructs);
        ht.mode = mode;
        out.push(Case {
            machine: "theta",
            workload: "hacc",
            profile: theta_profile(theta_nodes, theta_rpn),
            storage: StorageConfig::Lustre(LustreTunables::theta_hacc()),
            spec: ht,
        });
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tune.json").to_string()
        });

    let mut rows = String::new();
    let mut first = true;
    for case in cases(smoke) {
        let outcome = autotune(&case.profile, &case.storage, &case.spec)
            .expect("autotune failed on a shipped workload");
        let ranks: usize = case.spec.groups.iter().map(|g| g.ranks.len()).sum();
        let r = &outcome.report;
        eprintln!(
            "{}/{}/{}: rule {} aggr x {} MiB -> {:.2} GiB/s | tuned {} aggr x {} MiB \
             {} pipelining={} tier={} -> {:.2} GiB/s | {}",
            case.machine,
            case.workload,
            mode_name(case.spec.mode),
            outcome.rule.num_aggregators,
            outcome.rule.buffer_size / MIB,
            outcome.rule_bandwidth / (1u64 << 30) as f64,
            outcome.best.num_aggregators,
            outcome.best.buffer_size / MIB,
            strategy_name(outcome.best.strategy),
            outcome.best.pipelining,
            outcome.tier.name(),
            outcome.tuned_bandwidth / (1u64 << 30) as f64,
            r,
        );
        assert!(
            outcome.tuned_bandwidth >= outcome.rule_bandwidth,
            "tuned config lost to the rule-based anchor on {}/{}",
            case.machine,
            case.workload,
        );
        if !first {
            rows.push(',');
        }
        first = false;
        let _ = write!(
            rows,
            "\n    {{\"machine\": \"{}\", \"workload\": \"{}\", \"mode\": \"{}\", \
             \"ranks\": {ranks}, \
             \"rule_aggregators\": {}, \"rule_buffer\": {}, \"rule_bw\": {:.1}, \
             \"tuned_aggregators\": {}, \"tuned_buffer\": {}, \
             \"tuned_strategy\": \"{}\", \"tuned_pipelining\": {}, \
             \"tuned_tier\": \"{}\", \"tuned_bw\": {:.1}, \
             \"grid_size\": {}, \"model_evals\": {}, \"sims_run\": {}, \
             \"sim_savings\": {:.3}, \"sim_wall_ms\": {:.3}}}",
            case.machine,
            case.workload,
            mode_name(case.spec.mode),
            outcome.rule.num_aggregators,
            outcome.rule.buffer_size,
            outcome.rule_bandwidth,
            outcome.best.num_aggregators,
            outcome.best.buffer_size,
            strategy_name(outcome.best.strategy),
            outcome.best.pipelining,
            outcome.tier.name(),
            outcome.tuned_bandwidth,
            r.grid_size,
            r.model_evals,
            r.sims_run,
            r.sim_savings(),
            r.sim_wall_ns as f64 / 1e6,
        );
    }

    let json = format!(
        "{{\n  \"schema\": \"tapioca-tunebench/v3\",\n  \"smoke\": {smoke},\n  \
         \"rows\": [{rows}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write BENCH_tune.json");
    eprintln!("wrote {out_path}");
}
