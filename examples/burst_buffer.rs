//! Burst-buffer staging (the paper's Sec. VI future work) from the
//! application's point of view: how long is a checkpoint *perceived* to
//! take when aggregated data lands on node-local flash first?
//!
//! Run with: `cargo run --release --example burst_buffer`

use tapioca::config::TapiocaConfig;
use tapioca::schedule::WriteDecl;
use tapioca::sim_exec::{CollectiveSpec, GroupSpec};
use tapioca_pfs::{AccessMode, LustreTunables};
use tapioca_tiers::{run_tiered_sim, Destination, Tier, TieredConfig};
use tapioca_topology::{theta_profile, MIB};

fn main() -> tapioca::Result<()> {
    let nodes = 256;
    let rpn = 16;
    let nranks = nodes * rpn;
    let per = 8 * MIB; // 8 MiB checkpoint data per rank
    let profile = theta_profile(nodes, rpn);
    let tun = LustreTunables::theta_optimized();
    let cfg = TapiocaConfig { num_aggregators: 96, buffer_size: 8 * MIB, ..Default::default() };
    let spec = CollectiveSpec {
        groups: vec![GroupSpec {
            file: 0,
            ranks: (0..nranks).collect(),
            decls: (0..nranks as u64)
                .map(|r| vec![WriteDecl { offset: r * per, len: per }])
                .collect(),
        }],
        mode: AccessMode::Write,
    };
    let gib = (1u64 << 30) as f64;

    println!(
        "checkpoint: {} ranks x {} MiB = {:.0} GiB on {} Theta nodes\n",
        nranks,
        per / MIB,
        (nranks as u64 * per) as f64 / gib,
        nodes
    );
    for (name, tiered) in [
        ("direct to Lustre", TieredConfig::default()),
        (
            "stage on node-local SSD, drain async",
            TieredConfig { buffer_tier: Tier::Dram, destination: Destination::BurstBufferThenDrain },
        ),
        ("MCDRAM buffers + SSD staging", TieredConfig::mcdram_burst_buffer()),
    ] {
        let r = run_tiered_sim(&profile, &tun, &spec, &cfg, &tiered)?;
        println!("{name}:");
        println!(
            "  application blocked for {:.2} s ({:.2} GiB/s perceived)",
            r.time_to_safe,
            r.perceived_bandwidth / gib
        );
        println!(
            "  data on the PFS after   {:.2} s ({:.2} GiB/s end-to-end)\n",
            r.time_to_pfs,
            r.end_to_end_bandwidth / gib
        );
    }
    println!("staging moves the Lustre round trip off the critical path;");
    println!("the drain overlaps with the application's next compute phase.");
    Ok(())
}
