//! Ablation: the paper's Sec. VI future work, measured — aggregate in
//! DRAM or MCDRAM and flush to the node-local burst buffer with an
//! asynchronous drain, versus the base library's direct PFS writes.
//!
//! Setup: HACC-IO-sized checkpoint on 512 Theta nodes, 48 OSTs, 16 MB
//! stripes/buffers, 192 aggregators.
//!
//! Expected shape: staging collapses the *perceived* checkpoint time
//! (time until the data is durable on flash and the application
//! resumes) by a large factor, while the end-to-end time to the PFS
//! stays in the same regime as the direct write (the drain pays the
//! same Lustre service, just off the critical path).

use tapioca::config::TapiocaConfig;
use tapioca_bench::*;
use tapioca_pfs::LustreTunables;
use tapioca_tiers::{run_tiered_sim, Destination, Tier, TieredConfig};
use tapioca_topology::{theta_profile, MIB};
use tapioca_workloads::hacc::{Layout, PARTICLE_BYTES};

fn main() {
    let nodes = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);
    let profile = theta_profile(nodes, RANKS_PER_NODE);
    let tun = LustreTunables::theta_hacc();
    let cfg = TapiocaConfig {
        num_aggregators: 192,
        buffer_size: 16 * MIB,
        ..Default::default()
    };

    let configs: [(&str, TieredConfig); 3] = [
        ("direct PFS (base library)", TieredConfig::default()),
        (
            "DRAM buffers + burst buffer",
            TieredConfig { buffer_tier: Tier::Dram, destination: Destination::BurstBufferThenDrain },
        ),
        ("MCDRAM buffers + burst buffer", TieredConfig::mcdram_burst_buffer()),
    ];

    println!("# Ablation - burst-buffer staging on {nodes} Theta nodes (Sec. VI future work)");
    println!("config,data_mib_per_rank,time_to_safe_s,time_to_pfs_s,perceived_gib_s,end_to_end_gib_s");
    let gib = (1u64 << 30) as f64;
    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    for &pp in &[25_000u64, 100_000] {
        let x = mib(pp * PARTICLE_BYTES);
        let spec = hacc_theta(nodes, RANKS_PER_NODE, pp, Layout::ArrayOfStructs);
        for (name, tiered) in configs {
            let r = run_tiered_sim(&profile, &tun, &spec, &cfg, &tiered)
                .expect("tiered simulation failed");
            println!(
                "{name},{x:.3},{:.4},{:.4},{:.2},{:.2}",
                r.time_to_safe,
                r.time_to_pfs,
                r.perceived_bandwidth / gib,
                r.end_to_end_bandwidth / gib
            );
            rows.push((format!("{name}@{x:.2}"), r.time_to_safe, r.time_to_pfs, x));
            eprintln!("  [{x:.2} MiB] {name}: safe {:.3}s, pfs {:.3}s", r.time_to_safe, r.time_to_pfs);
        }
    }

    let get = |needle: &str, x: f64| {
        rows.iter()
            .find(|(n, ..)| n.starts_with(needle) && n.ends_with(&format!("{x:.2}")))
            .expect("row")
            .clone()
    };
    let x_hi = mib(100_000 * PARTICLE_BYTES);
    let direct = get("direct", x_hi);
    let bb = get("DRAM buffers", x_hi);
    let mcdram = get("MCDRAM buffers", x_hi);
    shape(
        "staging-collapses-perceived-time",
        bb.1 < 0.35 * direct.1,
        &format!("time-to-safe {:.2}s staged vs {:.2}s direct ({:.1}x)",
            bb.1, direct.1, direct.1 / bb.1),
    );
    shape(
        "drain-stays-in-the-same-regime",
        bb.2 < 2.0 * direct.2,
        &format!("time-to-PFS {:.2}s staged vs {:.2}s direct", bb.2, direct.2),
    );
    shape(
        "mcdram-not-slower-than-dram",
        mcdram.1 <= bb.1 * 1.001,
        &format!("MCDRAM safe {:.3}s vs DRAM {:.3}s", mcdram.1, bb.1),
    );
}
