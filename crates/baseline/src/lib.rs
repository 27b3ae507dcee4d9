//! # tapioca-baseline
//!
//! The comparison baseline of the paper: a ROMIO-like **two-phase
//! collective buffering** MPI I/O implementation.
//!
//! Differences from TAPIOCA, mirroring Sec. II-B/IV of the paper:
//!
//! * **Per-call optimization only** — each collective write/read is
//!   scheduled in isolation. Multi-variable patterns (HACC-IO SoA)
//!   become independent collective calls that flush partially-filled
//!   aggregation buffers (paper Fig. 2).
//! * **Rank-order aggregator placement** — "a strategy consists in
//!   selecting the bridge node as a first aggregator and the other
//!   aggregators following a rank order"; no cost model, no topology.
//! * **No pipelining** — a single aggregation buffer per aggregator;
//!   the next round's aggregation waits for the current flush.
//!
//! Two implementations are provided: the thread-mode
//! [`romio::collective_write`], which redistributes with `alltoallv`
//! as real ROMIO does and must write the same file as a TAPIOCA
//! `Session` (`tests/cross_validation.rs`), and the simulation-mode
//! driver [`sim::run_mpiio_sim`], which runs TAPIOCA's simulated
//! pipeline in ROMIO's configuration and is used for the figures.

pub mod romio;
pub mod sim;

pub use romio::{collective_write, MpiIoConfig};
pub use sim::run_mpiio_sim;

/// Tests of the `alltoallv` exchange inside [`romio::collective_write`],
/// on shapes the `romio` unit tests do not cover: eight ranks over three
/// file domains, variables that straddle rounds, and data held only by
/// the lowest ranks.
#[cfg(test)]
mod alltoall {
    mod tests {
        use crate::romio::{collective_write, MpiIoConfig};
        use tapioca_mpi::{Runtime, SharedFile};

        fn tmp(name: &str) -> std::path::PathBuf {
            let dir = std::env::temp_dir().join("tapioca-a2a-tests");
            std::fs::create_dir_all(&dir).unwrap();
            dir.join(format!("{name}-{}", std::process::id()))
        }

        #[test]
        fn alltoall_write_roundtrip() {
            // 2,400 bytes over 3 file domains of 800 and 128-byte rounds:
            // rounds cut the ranks' 300-byte runs at unaligned offsets and
            // each domain ends in a partial round.
            let path = tmp("rt");
            let n = 8;
            let per = 300u64;
            Runtime::run(n, |comm| {
                let file = SharedFile::open_shared(&comm, &path);
                let r = comm.rank() as u64;
                let payload: Vec<u8> = (0..per).map(|i| (r * 11 + i) as u8).collect();
                collective_write(&comm, &file, r * per, &payload, &MpiIoConfig {
                    cb_aggregators: 3,
                    cb_buffer_size: 128,
                })
                .unwrap();
            });
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len() as u64, n as u64 * per);
            for r in 0..n as u64 {
                for i in 0..per {
                    assert_eq!(
                        bytes[(r * per + i) as usize],
                        (r * 11 + i) as u8,
                        "rank {r} byte {i}"
                    );
                }
            }
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn sequential_multivar_calls() {
            // 64-byte variables under a 96-byte buffer: one rank's chunk
            // is split across two rounds in each file domain of every call.
            let path = tmp("multivar");
            let n = 4;
            let var = 64u64;
            Runtime::run(n, |comm| {
                let file = SharedFile::open_shared(&comm, &path);
                let r = comm.rank() as u64;
                let cfg = MpiIoConfig { cb_aggregators: 2, cb_buffer_size: 96 };
                for v in 0..3u64 {
                    let payload = vec![(v * 40 + r + 1) as u8; var as usize];
                    collective_write(&comm, &file, v * (n as u64 * var) + r * var, &payload, &cfg)
                        .unwrap();
                }
            });
            let bytes = std::fs::read(&path).unwrap();
            for v in 0..3u64 {
                for r in 0..n as u64 {
                    let base = (v * 256 + r * 64) as usize;
                    assert!(bytes[base..base + 64].iter().all(|&b| b == (v * 40 + r + 1) as u8));
                }
            }
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn ranks_without_data_still_collective() {
            // Only ranks 0 and 1 hold data; ranks 2-4 still join every
            // exchange of the call with empty buffers.
            let path = tmp("sparse");
            Runtime::run(5, |comm| {
                let file = SharedFile::open_shared(&comm, &path);
                let r = comm.rank() as u64;
                let cfg = MpiIoConfig { cb_aggregators: 2, cb_buffer_size: 64 };
                if r < 2 {
                    collective_write(&comm, &file, r * 100, &[r as u8 + 1; 100], &cfg).unwrap();
                } else {
                    collective_write(&comm, &file, 0, &[], &cfg).unwrap();
                }
            });
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len(), 200);
            assert!(bytes[0..100].iter().all(|&b| b == 1));
            assert!(bytes[100..200].iter().all(|&b| b == 2));
            std::fs::remove_file(&path).ok();
        }
    }
}
