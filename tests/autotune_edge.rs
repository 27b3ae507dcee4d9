//! Edge cases at the tuner's input boundary and in `read_declared`:
//! zero-length extents, a single rank, non-uniform per-rank declaration
//! counts, and one-rank file groups. These are the degenerate shapes a
//! tuning sweep feeds the pipeline while exploring, so both the thread
//! runtime and the tuner itself must take them without panicking.

use tapioca::autotune::autotune;
use tapioca::prelude::*;
use tapioca::sim_exec::{CollectiveSpec, GroupSpec, StorageConfig};
use tapioca_mpi::{Runtime, SharedFile};
use tapioca_pfs::{AccessMode, LustreTunables};
use tapioca_topology::{theta_profile, MIB};
use tapioca_workloads::datagen::expected_range;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-autotune-edge");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Write each rank's declared extents with seeded data, then read them
/// back through `read_declared` and compare buffer by buffer.
fn write_then_read_back(name: &str, ranks: usize, decls_of: impl Fn(u64) -> Vec<WriteDecl> + Send + Sync) {
    let path = tmp(name);
    let seed = 0xED6E ^ ranks as u64;
    Runtime::run(ranks, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank() as u64;
        let decls = decls_of(r);
        let cfg = TapiocaConfig { num_aggregators: 2.min(ranks), buffer_size: 1024, ..Default::default() };
        let mut io =
            Session::builder(&comm, file).declarations(decls.clone()).config(cfg).build().unwrap();
        for d in &decls {
            io.write(d.offset, &expected_range(seed, d.offset, d.len as usize)).unwrap();
        }
        let back = io.read_declared().unwrap();
        assert_eq!(back.len(), decls.len(), "rank {r}: one buffer per declared extent");
        for (d, buf) in decls.iter().zip(&back) {
            assert_eq!(buf.len() as u64, d.len, "rank {r}: buffer length");
            assert_eq!(
                buf[..],
                expected_range(seed, d.offset, d.len as usize)[..],
                "rank {r}: bytes at offset {}",
                d.offset
            );
        }
        io.finalize();
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn read_declared_with_zero_length_extents() {
    // Every rank declares one real extent and one zero-length extent;
    // the zero-length one must come back as an empty buffer, not shift
    // or corrupt its neighbors.
    write_then_read_back("zero-len", 4, |r| {
        vec![
            WriteDecl { offset: r * 512, len: 256 },
            WriteDecl { offset: r * 512 + 256, len: 0 },
        ]
    });
}

#[test]
fn read_declared_single_rank() {
    write_then_read_back("single-rank", 1, |_| {
        vec![WriteDecl { offset: 0, len: 4096 }]
    });
}

#[test]
fn read_declared_non_uniform_decl_counts() {
    // Rank 0: two extents, rank 1: one, rank 2: none, rank 3: three.
    // Collective calls must agree on rounds even when some ranks have
    // nothing to say.
    write_then_read_back("non-uniform", 4, |r| match r {
        0 => vec![
            WriteDecl { offset: 0, len: 300 },
            WriteDecl { offset: 300, len: 200 },
        ],
        1 => vec![WriteDecl { offset: 500, len: 500 }],
        2 => vec![],
        _ => vec![
            WriteDecl { offset: 1000, len: 100 },
            WriteDecl { offset: 1100, len: 100 },
            WriteDecl { offset: 1200, len: 100 },
        ],
    });
}

fn theta_env() -> (tapioca_topology::MachineProfile, StorageConfig) {
    (
        theta_profile(8, 2),
        StorageConfig::Lustre(LustreTunables::theta_optimized()),
    )
}

#[test]
fn tuner_accepts_zero_length_extents() {
    let (profile, storage) = theta_env();
    let spec = CollectiveSpec {
        groups: vec![GroupSpec {
            file: 0,
            ranks: (0..8).collect(),
            decls: (0..8u64)
                .map(|r| {
                    vec![
                        WriteDecl { offset: r * MIB, len: if r % 2 == 0 { MIB } else { 0 } },
                    ]
                })
                .collect(),
        }],
        mode: AccessMode::Write,
    };
    let out = autotune(&profile, &storage, &spec).unwrap();
    assert!(out.tuned_bandwidth >= out.rule_bandwidth);
    assert!(out.best.num_aggregators >= 1);
}

#[test]
fn tuner_accepts_non_uniform_decl_counts() {
    let (profile, storage) = theta_env();
    // Rank r declares r extents (rank 0 declares none).
    let decls: Vec<Vec<WriteDecl>> = (0..8u64)
        .map(|r| {
            (0..r)
                .map(|i| WriteDecl { offset: (r * 8 + i) * 64 * 1024, len: 64 * 1024 })
                .collect()
        })
        .collect();
    let spec = CollectiveSpec {
        groups: vec![GroupSpec { file: 0, ranks: (0..8).collect(), decls }],
        mode: AccessMode::Write,
    };
    let out = autotune(&profile, &storage, &spec).unwrap();
    assert!(out.tuned_bandwidth >= out.rule_bandwidth);
}

#[test]
fn tuner_accepts_one_rank_groups() {
    let (profile, storage) = theta_env();
    // Two files, each written by exactly one rank: every candidate must
    // collapse to a single aggregator.
    let spec = CollectiveSpec {
        groups: vec![
            GroupSpec {
                file: 0,
                ranks: vec![0],
                decls: vec![vec![WriteDecl { offset: 0, len: MIB }]],
            },
            GroupSpec {
                file: 1,
                ranks: vec![1],
                decls: vec![vec![WriteDecl { offset: 0, len: MIB }]],
            },
        ],
        mode: AccessMode::Write,
    };
    let out = autotune(&profile, &storage, &spec).unwrap();
    assert_eq!(out.best.num_aggregators, 1);
    for (cfg, _) in &out.confirmed {
        assert_eq!(cfg.num_aggregators, 1, "a 1-rank group admits exactly one aggregator");
    }
}
