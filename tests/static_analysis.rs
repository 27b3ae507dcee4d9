//! Corpus for the static analyzer's user checks.
//!
//! Each case builds a real config and declaration set carrying one
//! user mistake and asserts the analyzer reports the expected
//! [`StaticViolation`] variant with its witness; legal shapes the
//! executors support (overlapping reads, one rank's own overlapping
//! writes) must pass, and a sweep asserts clean paper-grid configs
//! prove out with zero violations. The autotune test pins the static
//! screen: illegal grid points are discarded before any simulation.

use tapioca::analyze::{
    analyze, check_capacity, derive_symbolic, StaticViolation, SymbolicSchedule,
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
    spec_as(AccessMode::Write, decls)
}

fn spec_as(mode: AccessMode, decls: Vec<Vec<WriteDecl>>) -> CollectiveSpec {
    CollectiveSpec {
        groups: vec![GroupSpec { file: 0, ranks: (0..decls.len()).collect(), decls }],
        mode,
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

// ---- extent overlap ----------------------------------------------------

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

#[test]
fn overlap_behind_a_rank_s_own_longer_put_is_found() {
    // Rank 0's [0, 1024) reaches past its own [100, 200); rank 1's
    // [500, 600) sorts after both and overlaps only the first.
    let profile = theta_profile(4, 1);
    let decls = vec![
        vec![WriteDecl { offset: 0, len: 1024 }, WriteDecl { offset: 100, len: 100 }],
        d(500, 100),
    ];
    let cfg = TapiocaConfig { num_aggregators: 1, buffer_size: 1024, ..Default::default() };
    let v = analyze(&symbolic(&profile, decls, &cfg), &cfg);
    assert!(
        matches!(
            v.as_slice(),
            [StaticViolation::ExtentOverlap {
                rank_a: 0,
                rank_b: 1,
                range_a: (0, 1024),
                range_b: (500, 600),
                ..
            }]
        ),
        "the overlap hidden behind rank 0's own put must be caught: {v:?}"
    );
}

#[test]
fn overlapping_reads_pass_validate_static() {
    // Both readers get the file's bytes; `read_equivalence` reads this
    // shape back.
    let profile = theta_profile(4, 2);
    let spec = spec_as(AccessMode::Read, vec![d(0, 1024), d(512, 1024)]);
    let built = TapiocaConfig::builder()
        .aggregators(2)
        .buffer_bytes(1024)
        .validate_static(&profile, &spec);
    assert!(built.is_ok(), "overlapping reads are legal: {:?}", built.err());
}

#[test]
fn a_lone_rank_s_overlapping_writes_pass_validate_static() {
    // One rank's own overlapping chunks: its later write wins, as the
    // thread executor writes it through the window.
    let profile = theta_profile(4, 1);
    let spec = spec_of(vec![vec![
        WriteDecl { offset: 0, len: 768 },
        WriteDecl { offset: 256, len: 768 },
    ]]);
    let built = TapiocaConfig::builder()
        .aggregators(1)
        .buffer_bytes(1024)
        .validate_static(&profile, &spec);
    assert!(built.is_ok(), "a rank may overlap its own writes: {:?}", built.err());
}

// ---- fault reachability ------------------------------------------------

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
fn crash_after_the_degrade_round_is_unreachable() {
    // A stall exhausts the retry budget at round 0, so the partition
    // writes directly from there and the round-1 crash never fires.
    let profile = theta_profile(4, 2);
    let decls = vec![d(0, 1024), d(1024, 1024)];
    let faults = FaultPlan::seeded(1)
        .with(FaultSpec::FlushStall { partition: 0, round: 0 })
        .with(FaultSpec::AggregatorCrash { partition: 0, round: 1 });
    let cfg = TapiocaConfig {
        num_aggregators: 1,
        buffer_size: 1024,
        faults: Some(faults),
        ..Default::default()
    };
    let sym = symbolic(&profile, decls, &cfg);
    assert_eq!(sym.groups[0].partitions[0].degrade_round, Some(0));
    let v = analyze(&sym, &cfg);
    assert!(
        matches!(
            v.as_slice(),
            [StaticViolation::FaultUnreachable { fault, reason }]
                if fault == "crash=0@1" && reason.contains("degrades at round 0")
        ),
        "a crash behind the degrade point must be flagged: {v:?}"
    );
}

#[test]
fn a_second_crash_spec_for_one_partition_is_unreachable() {
    // One crash per partition compiles: the first spec naming it.
    let profile = theta_profile(4, 2);
    let decls = vec![d(0, 1024), d(1024, 1024)];
    let faults = FaultPlan::seeded(1)
        .with(FaultSpec::AggregatorCrash { partition: 0, round: 0 })
        .with(FaultSpec::AggregatorCrash { partition: 0, round: 1 });
    let cfg = TapiocaConfig {
        num_aggregators: 1,
        buffer_size: 1024,
        faults: Some(faults),
        ..Default::default()
    };
    let v = analyze(&symbolic(&profile, decls, &cfg), &cfg);
    assert!(
        matches!(
            v.as_slice(),
            [StaticViolation::FaultUnreachable { fault, .. }] if fault == "crash=0@1"
        ),
        "the shadowed crash must be flagged: {v:?}"
    );
}

// ---- tier capacity -----------------------------------------------------

#[test]
fn zero_capacity_tier_is_rejected() {
    assert_eq!(
        check_capacity(1024, "empty-tier", 0),
        Some(StaticViolation::CapacityExceeded { tier: "empty-tier", required: 2048, capacity: 0 }),
        "double buffer cannot fit a zero-capacity tier"
    );
    assert_eq!(check_capacity(1024, "exact-tier", 2048), None, "a double buffer that fits");
    // `analyze` bounds the double buffer by DRAM (192 GiB).
    let profile = theta_profile(4, 2);
    let cfg = TapiocaConfig { num_aggregators: 1, buffer_size: 100 << 30, ..Default::default() };
    let v = analyze(&symbolic(&profile, vec![d(0, 512), d(512, 512)], &cfg), &cfg);
    assert!(
        matches!(
            v.as_slice(),
            [StaticViolation::CapacityExceeded { tier: "dram_direct", required, .. }]
                if *required == 200 << 30
        ),
        "a 2 x 100 GiB double buffer overflows DRAM: {v:?}"
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
    let v = analyze(&derive_symbolic(&profile, &overlapping, &cfg).unwrap(), &cfg);
    assert!(
        matches!(v.as_slice(), [StaticViolation::ExtentOverlap { rank_a: 0, rank_b: 1, .. }]),
        "one write overlap, reported once: {v:?}"
    );
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
