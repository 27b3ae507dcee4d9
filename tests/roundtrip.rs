//! Cross-crate integration: end-to-end byte correctness of the TAPIOCA
//! pipeline on the thread runtime, across configurations and workloads.

use tapioca::prelude::*;
use tapioca_mpi::{Comm, Runtime, SharedFile};
use tapioca_workloads::datagen::{expected_range, verify_slice};
use tapioca_workloads::hacc::{HaccIo, Layout};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tapioca-integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Write a dense file (rank r owns [r*per, (r+1)*per)) with seeded data
/// and verify every byte, for one configuration.
fn roundtrip_dense(name: &str, ranks: usize, per: u64, aggr: usize, buf: u64, pipelining: bool) {
    let path = tmp(name);
    let seed = 0xC0FFEE ^ per ^ aggr as u64;
    Runtime::run(ranks, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank() as u64;
        let decls = vec![WriteDecl { offset: r * per, len: per }];
        let cfg = TapiocaConfig {
            num_aggregators: aggr,
            buffer_size: buf,
            pipelining,
            strategy: PlacementStrategy::TopologyAware,
            ..Default::default()
        };
        let mut io =
            Session::builder(&comm, file).declarations(decls).config(cfg).build().unwrap();
        io.write(r * per, &expected_range(seed, r * per, per as usize)).unwrap();
        io.finalize();
    });
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, ranks as u64 * per);
    assert_eq!(verify_slice(seed, 0, &bytes), None, "config {name} corrupted the file");
    std::fs::remove_file(&path).ok();
}

#[test]
fn dense_small_buffers_many_rounds() {
    roundtrip_dense("small-buf", 8, 4096, 2, 128, true);
}

#[test]
fn dense_buffer_larger_than_partition() {
    roundtrip_dense("big-buf", 4, 512, 4, 1 << 20, true);
}

#[test]
fn dense_single_aggregator() {
    roundtrip_dense("one-aggr", 6, 2048, 1, 512, true);
}

#[test]
fn dense_unpipelined() {
    roundtrip_dense("nopipe", 8, 4096, 3, 256, false);
}

#[test]
fn dense_aggregators_exceed_ranks_worth_of_data() {
    roundtrip_dense("many-aggr", 4, 256, 16, 64, true);
}

#[test]
fn odd_sizes_and_buffers() {
    // deliberately non-power-of-two everything
    roundtrip_dense("odd", 7, 999, 3, 97, true);
}

#[test]
fn hacc_both_layouts_through_tapioca() {
    for layout in [Layout::ArrayOfStructs, Layout::StructOfArrays] {
        let w = HaccIo { num_ranks: 12, particles_per_rank: 500, layout };
        let path = tmp(&format!("hacc-{layout:?}"));
        let wl = w;
        Runtime::run(w.num_ranks, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let decls = wl.decls_of_rank(r);
            let mut io = Session::builder(&comm, file)
                .declarations(decls.clone())
                .config(TapiocaConfig {
                    num_aggregators: 3,
                    buffer_size: 4096,
                    ..Default::default()
                })
                .build()
                .unwrap();
            for (v, d) in decls.iter().enumerate() {
                io.write(d.offset, &wl.payload(r, v)).unwrap();
            }
            io.finalize();
        });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, w.total_bytes());
        for r in 0..w.num_ranks as u64 {
            for (v, d) in w.decls_of_rank(r).iter().enumerate() {
                assert_eq!(
                    &bytes[d.offset as usize..(d.offset + d.len) as usize],
                    w.payload(r, v).as_slice(),
                    "{layout:?} rank {r} var {v}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn io_stats_match_the_schedule() {
    // The executed traffic must account for every declared byte exactly
    // once: put, or written in place by an aggregator that fills a round
    // alone, and flushed.
    let path = tmp("stats");
    let n = 9;
    let per = 1000u64;
    let stats = Runtime::run(n, |comm| {
        let file = SharedFile::open_shared(&comm, &path);
        let r = comm.rank() as u64;
        let decls = vec![WriteDecl { offset: r * per, len: per }];
        let mut io = Session::builder(&comm, file)
            .declarations(decls)
            .config(TapiocaConfig {
                num_aggregators: 3,
                buffer_size: 512,
                ..Default::default()
            })
            .build()
            .unwrap();
        io.write(r * per, &expected_range(5, r * per, per as usize)).unwrap();
        let s = *io.stats().expect("flushed");
        io.finalize();
        s
    });
    let mut total = tapioca::aggregation::IoStats::default();
    for s in &stats {
        total.merge(s);
    }
    assert_eq!(
        total.put_bytes + total.in_place_bytes,
        n as u64 * per,
        "every byte put or written in place exactly once"
    );
    assert_eq!(total.flush_bytes, n as u64 * per, "every byte flushed exactly once");
    assert_eq!(total.elected, 3, "one aggregator elected per partition");
    assert!(total.puts >= n as u64, "at least one put per rank");
    // synchronisation calls pair up: a start with a complete on every
    // contributor, a post with a wait on every aggregator
    assert!(total.fences > 0 && total.fences % 2 == 0);
    std::fs::remove_file(&path).ok();
}

/// One write epoch, then `read_declared` must hand every rank its own
/// payload back. Four aggregators over ten ranks: every partition has
/// at least two members, so non-aggregators `get_into` from a window
/// whose creator may have been a zero-size member.
fn write_then_read_declared(comm: Comm, path: &std::path::Path) {
    let file = SharedFile::open_shared(&comm, path);
    let r = comm.rank() as u64;
    let per = 700u64;
    let decls = vec![WriteDecl { offset: r * per, len: per }];
    let mut io = Session::builder(&comm, file)
        .declarations(decls)
        .config(TapiocaConfig { num_aggregators: 4, buffer_size: 333, ..Default::default() })
        .build()
        .unwrap();
    assert!(io.schedule().partitions.iter().all(|p| p.members.len() >= 2));
    let payload = expected_range(7, r * per, per as usize);
    io.write(r * per, &payload).unwrap();
    let back = io.read_declared().unwrap();
    assert_eq!(back[0], payload);
    io.finalize();
}

#[test]
fn write_then_two_phase_read_roundtrip() {
    let path = tmp("w-then-r");
    Runtime::run(10, |comm| write_then_read_declared(comm, &path));
    std::fs::remove_file(&path).ok();
}

#[test]
fn two_phase_read_roundtrip_under_perturbed_schedules() {
    for seed in 0..8 {
        let path = tmp(&format!("w-then-r-perturbed-{seed}"));
        Runtime::run_perturbed(10, seed, |comm| write_then_read_declared(comm, &path));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn repeated_operations_on_one_communicator() {
    // several init/write epochs back-to-back must not cross-talk
    let paths: Vec<_> = (0..3).map(|i| tmp(&format!("epoch-{i}"))).collect();
    let paths2 = paths.clone();
    Runtime::run(6, move |comm| {
        for (epoch, path) in paths2.iter().enumerate() {
            let file = SharedFile::open_shared(&comm, path);
            let r = comm.rank() as u64;
            let per = 256 + 64 * epoch as u64;
            let decls = vec![WriteDecl { offset: r * per, len: per }];
            let mut io = Session::builder(&comm, file)
                .declarations(decls)
                .config(TapiocaConfig {
                    num_aggregators: 2 + epoch,
                    buffer_size: 128,
                    ..Default::default()
                })
                .build()
                .unwrap();
            io.write(r * per, &expected_range(epoch as u64, r * per, per as usize)).unwrap();
            io.finalize();
        }
    });
    for (epoch, path) in paths.iter().enumerate() {
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(verify_slice(epoch as u64, 0, &bytes), None, "epoch {epoch}");
        std::fs::remove_file(path).ok();
    }
}

mod props {
    //! Property-style sweep with deterministic seeds: any mix of
    //! per-rank sizes, aggregator counts and buffer sizes round-trips
    //! byte-exactly through the full pipeline. Each case is fully
    //! determined by its seed, so a failure message names a seed that
    //! reproduces it exactly.

    use super::*;
    use tapioca_workloads::datagen::SplitMix64;

    #[test]
    fn prop_pipeline_roundtrips_seeded_sweep() {
        for seed in 0u64..12 {
            let mut rng = SplitMix64::new(0x5EED_0000 + seed);
            let n = rng.range_usize(2, 8);
            let sizes: Vec<u64> = (0..n).map(|_| rng.range_u64(1, 2000)).collect();
            let aggr = rng.range_usize(1, 6);
            let buf = rng.range_u64(32, 700);
            let pipelining = rng.bool();

            let offsets: Vec<u64> = sizes
                .iter()
                .scan(0u64, |acc, s| {
                    let o = *acc;
                    *acc += s;
                    Some(o)
                })
                .collect();
            let total: u64 = sizes.iter().sum();
            let path = tmp(&format!("prop-{seed}"));
            let (sizes2, offsets2, path2) = (sizes.clone(), offsets.clone(), path.clone());
            Runtime::run(n, move |comm| {
                let file = SharedFile::open_shared(&comm, &path2);
                let r = comm.rank();
                let decls = vec![WriteDecl { offset: offsets2[r], len: sizes2[r] }];
                let mut io = Session::builder(&comm, file)
                    .declarations(decls)
                    .config(TapiocaConfig {
                        num_aggregators: aggr,
                        buffer_size: buf,
                        pipelining,
                        ..Default::default()
                    })
                    .build()
                    .unwrap();
                io.write(offsets2[r], &expected_range(99, offsets2[r], sizes2[r] as usize))
                    .unwrap();
                io.finalize();
            });
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(
                bytes.len() as u64,
                total,
                "seed {seed}: n={n} sizes={sizes:?} aggr={aggr} buf={buf} pipelining={pipelining}"
            );
            assert_eq!(
                verify_slice(99, 0, &bytes),
                None,
                "seed {seed}: n={n} sizes={sizes:?} aggr={aggr} buf={buf} pipelining={pipelining}"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}
