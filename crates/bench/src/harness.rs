//! Shared harness: workload -> `CollectiveSpec` builders for both
//! machines, sweep runners, CSV output, and shape checking.

use tapioca::config::TapiocaConfig;
use tapioca::sim_exec::{run_tapioca_sim, CollectiveSpec, GroupSpec, SimReport, StorageConfig};
use tapioca_baseline::romio::MpiIoConfig;
use tapioca_baseline::sim::run_mpiio_sim;
use tapioca_pfs::AccessMode;
use tapioca_topology::MachineProfile;
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

/// Ranks per node used throughout the paper's evaluation.
pub const RANKS_PER_NODE: usize = 16;

/// Nodes per Pset on Mira (fixed by the BG/Q architecture).
pub const NODES_PER_PSET: usize = 128;

/// Build an IOR collective for Mira with subfiling (one file per Pset,
/// as the paper recommends and uses).
pub fn ior_mira(nodes: usize, rpn: usize, bytes_per_rank: u64, mode: AccessMode) -> CollectiveSpec {
    let ranks_per_pset = NODES_PER_PSET * rpn;
    let n_psets = nodes / NODES_PER_PSET;
    let spec = IorSpec { num_ranks: ranks_per_pset, bytes_per_rank };
    let groups = (0..n_psets)
        .map(|p| GroupSpec {
            file: p,
            ranks: (p * ranks_per_pset..(p + 1) * ranks_per_pset).collect(),
            decls: spec.decls(),
        })
        .collect();
    CollectiveSpec { groups, mode }
}

/// Build an IOR collective for Theta (single shared file).
pub fn ior_theta(nodes: usize, rpn: usize, bytes_per_rank: u64, mode: AccessMode) -> CollectiveSpec {
    let n = nodes * rpn;
    let spec = IorSpec { num_ranks: n, bytes_per_rank };
    CollectiveSpec {
        groups: vec![GroupSpec { file: 0, ranks: (0..n).collect(), decls: spec.decls() }],
        mode,
    }
}

/// Build a HACC-IO collective for Mira with subfiling.
pub fn hacc_mira(nodes: usize, rpn: usize, particles_per_rank: u64, layout: Layout) -> CollectiveSpec {
    let ranks_per_pset = NODES_PER_PSET * rpn;
    let n_psets = nodes / NODES_PER_PSET;
    let w = HaccIo { num_ranks: ranks_per_pset, particles_per_rank, layout };
    let groups = (0..n_psets)
        .map(|p| GroupSpec {
            file: p,
            ranks: (p * ranks_per_pset..(p + 1) * ranks_per_pset).collect(),
            decls: w.decls(),
        })
        .collect();
    CollectiveSpec { groups, mode: AccessMode::Write }
}

/// Build a HACC-IO collective for Theta (single shared file).
pub fn hacc_theta(nodes: usize, rpn: usize, particles_per_rank: u64, layout: Layout) -> CollectiveSpec {
    let n = nodes * rpn;
    let w = HaccIo { num_ranks: n, particles_per_rank, layout };
    CollectiveSpec {
        groups: vec![GroupSpec { file: 0, ranks: (0..n).collect(), decls: w.decls() }],
        mode: AccessMode::Write,
    }
}

/// One measured point of a series.
#[derive(Debug, Clone)]
pub struct Point {
    /// Series label (e.g. "TAPIOCA AoS").
    pub series: String,
    /// Per-rank data size in MiB (the x-axis of every figure).
    pub x_mib: f64,
    /// Measured aggregate bandwidth, GiB/s.
    pub gib_s: f64,
}

/// Run TAPIOCA at one point.
pub fn measure_tapioca(
    profile: &MachineProfile,
    storage: &StorageConfig,
    spec: &CollectiveSpec,
    cfg: &TapiocaConfig,
) -> SimReport {
    // Bench binaries run vetted configs; surface a sim error loudly.
    run_tapioca_sim(profile, storage, spec, cfg).expect("simulation failed")
}

/// Run the MPI I/O baseline at one point.
pub fn measure_mpiio(
    profile: &MachineProfile,
    storage: &StorageConfig,
    spec: &CollectiveSpec,
    cfg: &MpiIoConfig,
) -> SimReport {
    run_mpiio_sim(profile, storage, spec, cfg).expect("simulation failed")
}

/// Print a CSV block: header then one row per point.
pub fn print_csv(title: &str, points: &[Point]) {
    println!("# {title}");
    println!("series,data_size_mib_per_rank,bandwidth_gib_s");
    for p in points {
        println!("{},{:.3},{:.4}", p.series, p.x_mib, p.gib_s);
    }
}

/// Mean bandwidth of a series.
pub fn series_mean(points: &[Point], series: &str) -> f64 {
    let v: Vec<f64> = points
        .iter()
        .filter(|p| p.series == series)
        .map(|p| p.gib_s)
        .collect();
    assert!(!v.is_empty(), "series {series} is empty");
    v.iter().sum::<f64>() / v.len() as f64
}

/// Bandwidth of a series at a given x (must exist).
pub fn series_at(points: &[Point], series: &str, x_mib: f64) -> f64 {
    points
        .iter()
        .find(|p| p.series == series && (p.x_mib - x_mib).abs() < 1e-9)
        .unwrap_or_else(|| panic!("no point for {series} at {x_mib}"))
        .gib_s
}

/// Print a shape verdict line (the `# SHAPE` footer of every binary).
pub fn shape(name: &str, holds: bool, detail: &str) {
    println!("# SHAPE {}: {} ({detail})", name, if holds { "PASS" } else { "FAIL" });
}

/// MiB helper for x-axis labels.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Drain `tracer` and write its merged, time-ordered trace to `path` as
/// JSON Lines (one event per line); returns the trace's summary so the
/// caller can print it. Backs the `--trace-out` option of the drivers.
pub fn dump_trace_jsonl(
    tracer: &tapioca_trace::Tracer,
    path: &std::path::Path,
) -> std::io::Result<tapioca_trace::TraceSummary> {
    use std::io::Write as _;
    let trace = tracer.drain();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace.write_jsonl(&mut w)?;
    w.flush()?;
    Ok(trace.summary())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mira_spec_has_one_group_per_pset() {
        let s = ior_mira(512, 4, 1024, AccessMode::Write);
        assert_eq!(s.groups.len(), 4);
        assert_eq!(s.groups[0].ranks.len(), 512);
        assert_eq!(s.groups[1].ranks[0], 512);
        // decls are rebased per subfile
        assert_eq!(s.groups[1].decls[0][0].offset, 0);
    }

    #[test]
    fn theta_spec_is_single_group() {
        let s = hacc_theta(32, 4, 100, Layout::StructOfArrays);
        assert_eq!(s.groups.len(), 1);
        assert_eq!(s.groups[0].decls[0].len(), 9);
    }

    #[test]
    fn series_helpers() {
        let pts = vec![
            Point { series: "A".into(), x_mib: 1.0, gib_s: 2.0 },
            Point { series: "A".into(), x_mib: 2.0, gib_s: 4.0 },
            Point { series: "B".into(), x_mib: 1.0, gib_s: 1.0 },
        ];
        assert_eq!(series_mean(&pts, "A"), 3.0);
        assert_eq!(series_at(&pts, "B", 1.0), 1.0);
    }
}
