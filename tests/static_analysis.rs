//! Adversarial corpus for the static aggregation-plan analyzer.
//!
//! Each case constructs (or mutates into existence) a schedule with a
//! specific defect and asserts the analyzer reports exactly the
//! expected [`StaticViolation`] variant with its witness; a seeded
//! sweep then asserts clean paper-grid configs prove out with zero
//! violations. The autotune test pins the static screen: illegal grid
//! points are discarded before any simulation.

use tapioca::analyze::{
    analyze, analyze_with_capacity, derive_symbolic, StaticViolation, SymbolicSchedule,
};
use tapioca::autotune::autotune_from;
use tapioca::config::TapiocaConfig;
use tapioca::schedule::WriteDecl;
use tapioca::sim_exec::{CollectiveSpec, GroupSpec, StorageConfig};
use tapioca_mpi::{FaultPlan, FaultSpec};
use tapioca_pfs::{AccessMode, GpfsTunables, LockMode, LustreTunables};
use tapioca_topology::{mira_profile, theta_profile, MachineProfile};
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

fn spec_of(decls: Vec<Vec<WriteDecl>>) -> CollectiveSpec {
    CollectiveSpec {
        groups: vec![GroupSpec { file: 0, ranks: (0..decls.len()).collect(), decls }],
        mode: AccessMode::Write,
    }
}

fn symbolic(
    profile: &MachineProfile,
    decls: Vec<Vec<WriteDecl>>,
    cfg: &TapiocaConfig,
) -> SymbolicSchedule {
    derive_symbolic(profile, &spec_of(decls), cfg).unwrap()
}

fn d(offset: u64, len: u64) -> Vec<WriteDecl> {
    vec![WriteDecl { offset, len }]
}

// ---- pass 1: extent overlap --------------------------------------------

#[test]
fn overlapping_declarations_yield_extent_overlap() {
    let profile = theta_profile(4, 2);
    // Ranks 0 and 1 both declare [0, 1024): their chunks collide inside
    // the aggregation window.
    let decls = vec![d(0, 1024), d(0, 1024), d(1024, 1024), d(2048, 1024)];
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 1024, ..Default::default() };
    let sym = symbolic(&profile, decls, &cfg);
    let v = analyze(&sym, &cfg);
    let overlap = v.iter().find_map(|x| match x {
        StaticViolation::ExtentOverlap { rank_a, rank_b, range_a, range_b, .. } => {
            Some((*rank_a, *rank_b, *range_a, *range_b))
        }
        _ => None,
    });
    let (a, b, ra, rb) = overlap.expect("overlapping decls must be caught");
    assert!([a, b].contains(&0) && [a, b].contains(&1), "witness names the two writers");
    assert!(ra.1 > rb.0 && rb.1 > ra.0, "witness ranges actually overlap");
}

// ---- pass 2: window bounds & alignment ---------------------------------

#[test]
fn out_of_slot_put_yields_window_overflow() {
    let profile = theta_profile(4, 2);
    let decls = vec![d(0, 512), d(512, 512)];
    let cfg = TapiocaConfig { num_aggregators: 1, buffer_size: 1024, ..Default::default() };
    let mut sym = symbolic(&profile, decls, &cfg);
    assert!(analyze(&sym, &cfg).is_empty(), "clean schedule must prove out");
    // Push one put past its slot boundary.
    let put = &mut sym.groups[0].partitions[0].rounds[0].puts[0];
    put.window_offset = 3 * cfg.buffer_size;
    let v = analyze(&sym, &cfg);
    assert!(
        v.iter().any(|x| matches!(
            x,
            StaticViolation::WindowOverflow { offset, .. } if *offset == 3 * cfg.buffer_size
        )),
        "escaped put must overflow: {v:?}"
    );
}

#[test]
fn skewed_flush_yields_misaligned_flush() {
    let profile = theta_profile(4, 2);
    let decls = vec![d(0, 512), d(512, 512)];
    let cfg = TapiocaConfig { num_aggregators: 1, buffer_size: 1024, ..Default::default() };
    let mut sym = symbolic(&profile, decls, &cfg);
    let seg = &mut sym.groups[0].partitions[0].rounds[0].flushes[0];
    seg.buf_offset += 16;
    let v = analyze(&sym, &cfg);
    assert!(
        v.iter().any(|x| matches!(
            x,
            StaticViolation::MisalignedFlush { buf_offset, expected, .. }
                if *buf_offset == *expected + 16
        )),
        "skewed segment must misalign: {v:?}"
    );
}

// ---- pass 3: round agreement -------------------------------------------

#[test]
fn inflated_put_yields_round_mismatch() {
    let profile = theta_profile(4, 2);
    let decls = vec![d(0, 512), d(512, 512)];
    let cfg = TapiocaConfig { num_aggregators: 1, buffer_size: 1024, ..Default::default() };
    let mut sym = symbolic(&profile, decls, &cfg);
    sym.groups[0].partitions[0].rounds[0].puts[0].bytes += 64;
    let v = analyze(&sym, &cfg);
    assert!(
        v.iter().any(|x| matches!(x, StaticViolation::RoundMismatch { .. })),
        "inflated put must break the byte account: {v:?}"
    );
}

// ---- pass 4: fence-graph acyclicity ------------------------------------

#[test]
fn reversed_visit_order_yields_fence_cycle() {
    let profile = theta_profile(4, 2);
    // Both ranks own data in both halves of the span, so both visit
    // both partitions.
    let decls = vec![
        vec![WriteDecl { offset: 0, len: 256 }, WriteDecl { offset: 1024, len: 256 }],
        vec![WriteDecl { offset: 512, len: 256 }, WriteDecl { offset: 1536, len: 256 }],
    ];
    let cfg = TapiocaConfig { num_aggregators: 2, buffer_size: 1024, ..Default::default() };
    let mut sym = symbolic(&profile, decls, &cfg);
    assert!(analyze(&sym, &cfg).is_empty(), "clean schedule must prove out");
    assert!(sym.groups[0].visit_order.iter().all(|(_, v)| v.len() == 2));
    // Rank 1 now enters the partitions in the opposite order: a lock-
    // order inversion over the subgroup fences.
    sym.groups[0].visit_order[1].1.reverse();
    let v = analyze(&sym, &cfg);
    let cycle = v.iter().find_map(|x| match x {
        StaticViolation::FenceCycle { cycle } => Some(cycle.clone()),
        _ => None,
    });
    let cycle = cycle.expect("inverted visit order must cycle");
    assert!(cycle.len() >= 2, "cycle witness names the partitions: {cycle:?}");
}

// ---- pass 5: fault reachability & coverage -----------------------------

#[test]
fn crash_in_nonexistent_round_is_unreachable() {
    let profile = theta_profile(4, 2);
    let decls = vec![d(0, 512), d(512, 512)];
    let faults =
        FaultPlan::seeded(1).with(FaultSpec::AggregatorCrash { partition: 0, round: 99 });
    let cfg = TapiocaConfig {
        num_aggregators: 1,
        buffer_size: 1024,
        faults: Some(faults),
        ..Default::default()
    };
    let sym = symbolic(&profile, decls, &cfg);
    assert!(
        sym.groups[0].partitions[0].crash.is_none(),
        "an out-of-range crash must not compile"
    );
    let v = analyze(&sym, &cfg);
    assert!(
        v.iter().any(|x| matches!(
            x,
            StaticViolation::FaultUnreachable { fault, reason }
                if fault == "crash=0@99" && reason.contains("out of range")
        )),
        "out-of-range crash must be flagged: {v:?}"
    );
}

#[test]
fn crash_in_single_rank_partition_has_no_standby() {
    let profile = theta_profile(4, 1);
    let decls = vec![d(0, 512)];
    let faults =
        FaultPlan::seeded(1).with(FaultSpec::AggregatorCrash { partition: 0, round: 0 });
    let cfg = TapiocaConfig {
        num_aggregators: 1,
        buffer_size: 1024,
        faults: Some(faults),
        ..Default::default()
    };
    let sym = symbolic(&profile, decls, &cfg);
    let v = analyze(&sym, &cfg);
    assert!(
        v.iter().any(|x| matches!(
            x,
            StaticViolation::NoStandby { partition: 0, round: 0 }
        )),
        "a crash with nobody to take over must be flagged: {v:?}"
    );
}

#[test]
fn dropped_segment_yields_uncovered_bytes() {
    let profile = theta_profile(4, 2);
    let decls = vec![d(0, 512), d(512, 512)];
    let cfg = TapiocaConfig { num_aggregators: 1, buffer_size: 1024, ..Default::default() };
    let mut sym = symbolic(&profile, decls, &cfg);
    let round = &mut sym.groups[0].partitions[0].rounds[0];
    let expected = round.bytes;
    round.flushes.pop();
    let v = analyze(&sym, &cfg);
    assert!(
        v.iter().any(|x| matches!(
            x,
            StaticViolation::UncoveredBytes { expected: e, covered, .. }
                if *e == expected && *covered < expected
        )),
        "coverage gap must be flagged: {v:?}"
    );
}

// ---- pass 6: tier capacity ---------------------------------------------

#[test]
fn zero_capacity_tier_is_rejected() {
    let profile = theta_profile(4, 2);
    let decls = vec![d(0, 512), d(512, 512)];
    let cfg = TapiocaConfig { num_aggregators: 1, buffer_size: 1024, ..Default::default() };
    let sym = symbolic(&profile, decls, &cfg);
    let v = analyze_with_capacity(&sym, &cfg, "empty-tier", 0);
    assert!(
        v.iter().any(|x| matches!(
            x,
            StaticViolation::CapacityExceeded { tier: "empty-tier", required, capacity: 0 }
                if *required == 2 * cfg.buffer_size
        )),
        "double buffer cannot fit a zero-capacity tier: {v:?}"
    );
}

// ---- builder integration -----------------------------------------------

#[test]
fn builder_rejects_fault_beyond_partition_bound() {
    let faults =
        FaultPlan::seeded(1).with(FaultSpec::AggregatorCrash { partition: 7, round: 0 });
    let err = TapiocaConfig::builder()
        .aggregators(4)
        .faults(faults)
        .build()
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("partition 7") && msg.contains("4 aggregators"),
        "cross-field bound must name the witness: {msg}"
    );
    // Stalls and targeted slowdowns are bounded the same way.
    let faults = FaultPlan::seeded(1).with(FaultSpec::FlushStall { partition: 9, round: 0 });
    assert!(TapiocaConfig::builder().aggregators(4).faults(faults).build().is_err());
    // In-bounds faults still build.
    let faults =
        FaultPlan::seeded(1).with(FaultSpec::AggregatorCrash { partition: 3, round: 0 });
    assert!(TapiocaConfig::builder().aggregators(4).faults(faults).build().is_ok());
}

#[test]
fn validate_static_accepts_clean_and_rejects_overlap() {
    let profile = theta_profile(4, 2);
    let clean = spec_of(vec![d(0, 512), d(512, 512)]);
    let cfg = TapiocaConfig::builder()
        .aggregators(2)
        .buffer_bytes(1024)
        .validate_static(&profile, &clean)
        .unwrap()
        .build()
        .unwrap();
    assert_eq!(cfg.num_aggregators, 2);

    let overlapping = spec_of(vec![d(0, 1024), d(0, 1024)]);
    let err = TapiocaConfig::builder()
        .aggregators(2)
        .buffer_bytes(1024)
        .validate_static(&profile, &overlapping)
        .unwrap_err();
    assert!(
        err.to_string().contains("static analysis"),
        "violation must surface through the builder: {err}"
    );
}

// ---- clean paper-grid sweep --------------------------------------------

#[test]
fn clean_paper_grid_produces_zero_violations() {
    let theta = theta_profile(8, 2);
    let mira = mira_profile(128, 1);
    let workloads: Vec<(&str, Vec<Vec<WriteDecl>>)> = vec![
        ("ior-16", IorSpec { num_ranks: 16, bytes_per_rank: 4096 }.decls()),
        (
            "hacc-soa",
            HaccIo { num_ranks: 16, particles_per_rank: 64, layout: Layout::StructOfArrays }
                .decls(),
        ),
        (
            "hacc-aos",
            HaccIo { num_ranks: 16, particles_per_rank: 48, layout: Layout::ArrayOfStructs }
                .decls(),
        ),
    ];
    for profile in [&theta, &mira] {
        for (name, decls) in &workloads {
            for &aggr in &[1usize, 2, 4, 8] {
                for &buf in &[512u64, 1024, 4096, 16384] {
                    let cfg = TapiocaConfig {
                        num_aggregators: aggr,
                        buffer_size: buf,
                        ..Default::default()
                    };
                    let sym = symbolic(profile, decls.clone(), &cfg);
                    let v = analyze(&sym, &cfg);
                    assert!(
                        v.is_empty(),
                        "{name} on {} (A={aggr}, B={buf}) must prove out, got {v:?}",
                        profile.name
                    );
                }
            }
        }
    }
}

#[test]
fn faulted_suite_configs_prove_out() {
    // The shipped fault workloads are legal: crash reaches a real
    // round, degrade paths stay byte-covering.
    let profile = theta_profile(8, 2);
    let decls = IorSpec { num_ranks: 16, bytes_per_rank: 4096 }.decls();
    for faults in [
        FaultPlan::seeded(11).with(FaultSpec::AggregatorCrash { partition: 1, round: 1 }),
        FaultPlan::seeded(7).with(FaultSpec::TransientFlushError { probability: 0.4 }),
        FaultPlan::seeded(3).with(FaultSpec::FlushStall { partition: 0, round: 1 }),
    ] {
        let cfg = TapiocaConfig {
            num_aggregators: 4,
            buffer_size: 1024,
            faults: Some(faults),
            ..Default::default()
        };
        let sym = symbolic(&profile, decls.clone(), &cfg);
        let v = analyze(&sym, &cfg);
        assert!(v.is_empty(), "legal fault plan must prove out: {v:?}");
    }
}

// ---- autotune static screen --------------------------------------------

#[test]
fn autotune_prunes_illegal_grid_points_without_simulating() {
    // An (artificially) 8 GiB stripe pushes the buffer ladder to
    // 4-32 GiB; doubled, the upper rungs overflow the 16 GiB MCDRAM
    // tiers. The static screen must discard those points before the
    // model or simulator sees them.
    const GIB: u64 = 1024 * 1024 * 1024;
    let profile = theta_profile(8, 2);
    let storage = StorageConfig::Lustre(LustreTunables {
        stripe_count: 4,
        stripe_size: 8 * GIB,
        lock_mode: LockMode::Shared,
    });
    let spec = spec_of(IorSpec { num_ranks: 16, bytes_per_rank: 4096 }.decls());
    let base = TapiocaConfig::default();
    let out = autotune_from(&profile, &storage, &spec, &base).unwrap();
    assert!(
        out.report.static_pruned >= 1,
        "at least one illegal grid point must be pruned statically: {}",
        out.report
    );
    assert_eq!(
        out.report.model_evals + out.report.static_pruned,
        out.report.grid_size,
        "pruned points must not reach the cost model: {}",
        out.report
    );
    assert!(
        out.report.sims_run * 4 <= out.report.grid_size,
        "simulations stay bounded by the shortlist: {}",
        out.report
    );
}

#[test]
fn gpfs_grid_has_nothing_to_prune() {
    // On BG/Q there are no MCDRAM tiers, so the screen is a no-op —
    // pin that it stays zero rather than silently eating grid points.
    let profile = mira_profile(128, 1);
    let storage = StorageConfig::Gpfs(GpfsTunables::mira_optimized());
    let spec = spec_of(IorSpec { num_ranks: 32, bytes_per_rank: 8192 }.decls());
    let out = autotune_from(&profile, &storage, &spec, &TapiocaConfig::default()).unwrap();
    assert_eq!(out.report.static_pruned, 0, "{}", out.report);
}
