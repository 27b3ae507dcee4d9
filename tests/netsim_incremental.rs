//! Bit-identity sweep for the incremental component-sharded engine.
//!
//! The engine promises that `Recompute::Incremental` (re-waterfill only
//! dirty interference components) produces *bitwise* the same schedule
//! as `Recompute::Full` (re-waterfill everything on any change). This
//! sweep drives the public API across seeded random workloads — random
//! routes, dependency edges, completion slack, mid-run capacity scaling
//! and virtual-link growth — and asserts every finish time matches the
//! Full reference to the last bit.

use tapioca_netsim::{Recompute, Simulator};

/// SplitMix64 — the workspace's standard seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in [0, 1) with 53-bit resolution.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Run one seeded workload under the given recompute mode and return
/// the bit patterns of every flow's finish time, in flow order.
fn run_case(case: u64, mode: Recompute) -> Vec<u64> {
    let mut rng = Rng(0xC0FF_EE00 ^ case.wrapping_mul(0x0123_4567_89AB_CDEF));
    let n_links = 8 + rng.below(184) as usize;
    let caps: Vec<f64> = (0..n_links).map(|_| 1e9 * (1.0 + rng.below(16) as f64)).collect();

    let mut sim = Simulator::with_capacities(caps);
    sim.set_recompute(mode);
    if case.is_multiple_of(5) {
        sim.set_completion_slack(1e-6);
    }

    let n_flows = 12 + rng.below(36) as usize;
    let mut ids = Vec::with_capacity(n_flows);
    for _ in 0..n_flows {
        let len = 1 + rng.below(7) as usize;
        let mut route = Vec::with_capacity(len);
        while route.len() < len {
            let l = rng.below(n_links as u64) as usize;
            if !route.contains(&l) {
                route.push(l);
            }
        }
        let start = rng.f64() * 4.0;
        let delay = if rng.below(3) == 0 { rng.f64() * 1e-4 } else { 0.0 };
        let bytes = 1e6 + rng.f64() * 5e9;
        let mut deps = Vec::new();
        if !ids.is_empty() && rng.below(3) == 0 {
            for _ in 0..=rng.below(3) {
                deps.push(ids[rng.below(ids.len() as u64) as usize]);
            }
        }
        ids.push(sim.submit_with_deps(start, delay, &route, bytes, &deps));
    }

    // Mid-run perturbations: capacity scaling must invalidate every
    // component, virtual-link growth must resize the link tables.
    if case.is_multiple_of(3) {
        for _ in 0..5 {
            if !sim.step() {
                break;
            }
        }
        sim.scale_capacities(0.4 + rng.f64() * 0.6);
    }
    if case.is_multiple_of(7) {
        for _ in 0..3 {
            if !sim.step() {
                break;
            }
        }
        let vl = sim.add_virtual_link(2e9);
        let shared = rng.below(n_links as u64) as usize;
        ids.push(sim.submit(sim.now() + 0.1, [shared, vl], 3e9));
    }

    sim.run_to_idle();
    ids.iter()
        .map(|&id| sim.finish_time(id).expect("all flows complete").to_bits())
        .collect()
}

#[test]
fn incremental_bit_identical_to_full_recompute() {
    const CASES: u64 = 72;
    for case in 0..CASES {
        let reference = run_case(case, Recompute::Full);
        let got = run_case(case, Recompute::Incremental);
        assert_eq!(got.len(), reference.len(), "case {case}: flow count");
        for (i, (&g, &r)) in got.iter().zip(&reference).enumerate() {
            assert!(
                g == r,
                "case {case}: flow {i} finish {} != reference {}",
                f64::from_bits(g),
                f64::from_bits(r),
            );
        }
    }
}

/// One seeded storage-shaped workload: flushes over private links and a
/// few shared gateways into a few storage sinks, with dependencies
/// chaining them into rounds. The sinks saturate and the gateways mostly
/// do not, so each interference component holds several rate-coupled
/// blocks, and components grow past the size where the engine starts
/// keeping blocks.
fn run_storage_case(case: u64, mode: Recompute) -> Vec<u64> {
    let mut rng = Rng(0x5702_A6E0 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut sim = Simulator::with_capacities(Vec::new());
    sim.set_recompute(mode);
    if case.is_multiple_of(4) {
        sim.set_completion_slack(1e-6);
    }
    let gateways: Vec<usize> = (0..1 + rng.below(4))
        .map(|_| sim.add_virtual_link(1e9 * (20 + rng.below(60)) as f64))
        .collect();
    let sinks: Vec<usize> = (0..3 + rng.below(10))
        .map(|_| sim.add_virtual_link(1e9 * (1 + rng.below(16)) as f64))
        .collect();
    let n_flows = 40 + rng.below(120) as usize;
    let private: Vec<usize> = (0..n_flows / 2).map(|_| sim.add_virtual_link(8e9)).collect();
    let mut ids = Vec::with_capacity(n_flows);
    for i in 0..n_flows {
        let route = [
            private[i % private.len()],
            gateways[rng.below(gateways.len() as u64) as usize],
            sinks[rng.below(sinks.len() as u64) as usize],
        ];
        // Every flow past the first round waits for one earlier flow.
        let deps = if i >= 24 { vec![ids[rng.below(ids.len() as u64) as usize]] } else { vec![] };
        let start = rng.f64() * 0.5;
        let bytes = 1e8 + rng.f64() * 4e9;
        ids.push(sim.submit_with_deps(start, 0.0, route, bytes, &deps));
    }
    if case.is_multiple_of(3) {
        for _ in 0..8 {
            if !sim.step() {
                break;
            }
        }
        sim.scale_capacities(0.5 + rng.f64() * 0.5);
    }
    sim.run_to_idle();
    ids.iter()
        .map(|&id| sim.finish_time(id).expect("all flows complete").to_bits())
        .collect()
}

#[test]
fn storage_shaped_blocks_bit_identical_to_full_recompute() {
    for case in 0..24 {
        let reference = run_storage_case(case, Recompute::Full);
        let got = run_storage_case(case, Recompute::Incremental);
        assert_eq!(got, reference, "case {case}: Incremental diverged from Full");
    }
}
