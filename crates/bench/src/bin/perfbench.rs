//! Tracked performance harness: self-times simulator set-up and epochs
//! across rank counts, up to the whole machine, then writes
//! `BENCH_perf.json` at the repo root in a stable schema.
//!
//! Usage:
//!
//! ```text
//! perfbench [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the sweep to CI-sized shapes (seconds, not
//! minutes) while keeping the output schema identical, so the CI job
//! can validate the file without caring which mode produced it.
//!
//! Schema (`tapioca-perfbench/v13`):
//!
//! ```json
//! {
//!   "schema": "tapioca-perfbench/v13",
//!   "smoke": false,
//!   "suites": {
//!     "scale":    { "workload", "threads", "setup_exponent",
//!                   "rows": [ { "ranks", "nodes", "groups", "reps",
//!                               "setup_s", "first_epoch_s", "epoch_s",
//!                               "peak_rss_mib", "replay_identical" } ] }
//!   }
//! }
//! ```
//!
//! `scale` builds and runs Mira HACC-IO SoA (≈1 MiB per rank, one file
//! per Pset, 16 aggregators per Pset, 16 MiB buffers — the
//! `sim-mira-hacc` workload of `BENCHMARK.json`) through `SimSession`
//! at growing rank counts, up to the whole machine (49,152 nodes,
//! 786,432 ranks, 384 Psets): `setup_s` is the median
//! `SimSession::build`, `first_epoch_s` the median first `run_epoch` of
//! a session (which lowers the plan onto a simulator the session keeps
//! unrun), `epoch_s` the median of the later, warm ones (each runs a
//! clone of that simulator), `peak_rss_mib` the process high-water mark
//! (`VmHWM`) once that size has run — sizes ascend, so it is that
//! size's peak. `replay_identical` says every
//! epoch's `SimReport`, `op_finish` included, is bit-identical to the
//! first epoch of the row's first session. `setup_exponent`
//! is the least-squares slope of `ln setup_s` over `ln ranks`;
//! `threads` is `available_parallelism`, which bounds the group
//! fan-out of `build`.
//!
//! The election and the incremental rate solver are held to their
//! pairwise and full-recompute references by tests
//! (`tests/placement_equivalence.rs`, the netsim engine's
//! `recompute_equivalence` module), not timed against them here.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use tapioca::prelude::*;
use tapioca::sim_exec::{SimReport, SimSession, StorageConfig};
use tapioca_bench::hacc_mira;
use tapioca_pfs::GpfsTunables;
use tapioca_topology::{mira_profile, MIB};
use tapioca_workloads::hacc::{HaccIo, Layout};

/// Process peak resident set (`VmHWM`) in MiB; 0 where `/proc` has none.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every field of a report, times as bits, for a bitwise comparison.
fn report_bits(r: &SimReport) -> Vec<u64> {
    let mut bits = vec![
        r.elapsed.to_bits(),
        r.bytes.to_bits(),
        r.bandwidth.to_bits(),
        r.transfers as u64,
        r.flushes as u64,
        r.last_transfer_finish.to_bits(),
        r.last_flush_finish.to_bits(),
        r.faults_injected,
        r.retries,
        r.reelections,
        r.degraded,
    ];
    bits.extend(r.op_finish.iter().map(|t| t.to_bits()));
    bits
}

fn median_s(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The paper's largest workload shape at growing rank counts, so
/// "set-up scales to the paper's largest run" — and past it, to all 48
/// racks of Mira — is a row: growth the whole-session benchmark, which
/// runs one size per workload, cannot show.
fn scale_suite(smoke: bool) -> String {
    let node_counts: &[usize] = if smoke {
        &[256, 1024]
    } else {
        &[256, 1024, 4096, 8192, 16384, 24576, 32768, 49152]
    };
    let rpn = 16;
    let cfg = TapiocaConfig { num_aggregators: 16, buffer_size: 16 * MIB, ..Default::default() };
    let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
    // One first epoch per session, then the warm ones.
    let (reps, warm_epochs) = if smoke { (3, 1) } else { (5, 2) };

    let mut rows = String::new();
    let mut points: Vec<(f64, f64)> = Vec::new();
    for &nodes in node_counts {
        let profile = mira_profile(nodes, rpn);
        let spec =
            hacc_mira(nodes, rpn, HaccIo::particles_for_bytes(MIB), Layout::StructOfArrays);
        let mut setups = Vec::new();
        let mut first_epochs = Vec::new();
        let mut warm_epoch_times = Vec::new();
        let mut first_report: Option<Vec<u64>> = None;
        let mut replay_identical = true;
        for _ in 0..reps {
            let t = Instant::now();
            let mut session =
                SimSession::build(&profile, &storage, &spec, &cfg).expect("scale build failed");
            setups.push(t.elapsed().as_secs_f64());
            for epoch in 0..=warm_epochs {
                let t = Instant::now();
                let report = black_box(session.run_epoch().expect("scale epoch failed"));
                let times = if epoch == 0 { &mut first_epochs } else { &mut warm_epoch_times };
                times.push(t.elapsed().as_secs_f64());
                let bits = report_bits(&report);
                replay_identical &= *first_report.get_or_insert_with(|| bits.clone()) == bits;
            }
        }
        let (setup_s, first_epoch_s, epoch_s) =
            (median_s(setups), median_s(first_epochs), median_s(warm_epoch_times));
        let (ranks, groups, rss) = (nodes * rpn, spec.groups.len(), peak_rss_mib());
        eprintln!(
            "scale mira-hacc-soa ranks={ranks} groups={groups}: setup {setup_s:.4} s, \
             first epoch {first_epoch_s:.4} s, warm epoch {epoch_s:.4} s, peak rss {rss:.1} MiB, \
             replay identical {replay_identical}"
        );
        points.push(((ranks as f64).ln(), setup_s.ln()));
        if !rows.is_empty() {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "\n     {{\"ranks\": {ranks}, \"nodes\": {nodes}, \"groups\": {groups}, \
             \"reps\": {reps}, \"setup_s\": {setup_s:.6}, \
             \"first_epoch_s\": {first_epoch_s:.6}, \"epoch_s\": {epoch_s:.6}, \
             \"peak_rss_mib\": {rss:.1}, \"replay_identical\": {replay_identical}}}"
        );
    }
    // Least-squares slope of ln(setup_s) over ln(ranks).
    let n = points.len() as f64;
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let exponent = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>()
        / points.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!("scale mira-hacc-soa: setup_s ~ ranks^{exponent:.2} ({threads} threads)");
    format!(
        "{{\"workload\": \"mira-hacc-soa\", \"threads\": {threads}, \
         \"setup_exponent\": {exponent:.3}, \"rows\": [{rows}\n    ]}}"
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{root}/BENCH_perf.json"));

    let scale = scale_suite(smoke);
    let json = format!(
        "{{\n  \"schema\": \"tapioca-perfbench/v13\",\n  \"smoke\": {smoke},\n  \
         \"suites\": {{\n   \"scale\": {scale}\n  }}\n}}\n"
    );
    std::fs::write(&out, json).expect("write BENCH_perf.json");
    eprintln!("wrote {out}");
}
