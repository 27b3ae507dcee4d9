//! Thread-mode ROMIO-like collective buffering.
//!
//! `collective_write` is the counterpart of one
//! `MPI_File_write_at_all`, built the way ROMIO moves data (Thakur,
//! Gropp & Lusk): the redistribution phase is an **all-to-all
//! personalized exchange** (`MPI_Alltoallv`), not one-sided puts.
//! Collective over the communicator, one call:
//!
//! 1. allgathers the call's `(offset, len)` and computes the per-call
//!    schedule once per communicator ([`Comm::share`]):
//!    `cb_aggregators` ROMIO-style unaligned file domains,
//!    `cb_buffer_size` rounds;
//! 2. per round, every rank packs, for each aggregator, its chunks of
//!    the round (offsets travel with the payload); one `alltoallv`
//!    delivers them; each aggregator unpacks a partition's chunks into
//!    its single buffer and writes the round's segments, blocking;
//! 3. one flag reduction closes the call and hands a failed write to
//!    every rank.
//!
//! Aggregators are the lowest member rank of each partition (rank
//! order, like the MPICH default): no topology, no pipelining.

use tapioca::api::allgather_declarations;
use tapioca::config::TapiocaConfig;
use tapioca::schedule::{check_decl_extents, compute_schedule, Chunk, ScheduleParams, WriteDecl};
use tapioca::TapiocaError;
use tapioca_mpi::{Comm, SharedFile};

/// Collective-buffering knobs (the MPI-IO `cb_*` hints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpiIoConfig {
    /// Number of aggregators (`cb_nodes`).
    pub cb_aggregators: usize,
    /// Collective buffer size per aggregator (`cb_buffer_size`).
    pub cb_buffer_size: u64,
}

impl MpiIoConfig {
    /// `InvalidConfig` for hints that name no aggregator or no buffer —
    /// the checks, and messages, of [`TapiocaConfig::validate`].
    pub(crate) fn validate(&self) -> tapioca::Result<()> {
        let (num_aggregators, buffer_size) = (self.cb_aggregators, self.cb_buffer_size);
        TapiocaConfig { num_aggregators, buffer_size, ..TapiocaConfig::default() }.validate()
    }
}

impl Default for MpiIoConfig {
    fn default() -> Self {
        // ROMIO defaults on the studied systems: 16 MB buffers.
        Self { cb_aggregators: 16, cb_buffer_size: 16 * 1024 * 1024 }
    }
}

/// Bytes of a packed chunk header: partition, buffer offset, length.
const HEADER: usize = 24;

/// Pack chunk `c` as its header (`u64` little-endian fields) followed by
/// its payload.
fn pack(into: &mut Vec<u8>, c: &Chunk, payload: &[u8]) {
    for field in [c.partition as u64, c.buf_offset, c.len] {
        into.extend_from_slice(&field.to_le_bytes());
    }
    into.extend_from_slice(payload);
}

/// The chunks [`pack`]ed back to back into `bytes`, as
/// `(partition, buffer offset, payload)`.
fn unpack(mut bytes: &[u8]) -> impl Iterator<Item = (usize, usize, &[u8])> {
    std::iter::from_fn(move || {
        if bytes.is_empty() {
            return None;
        }
        let field = |i: usize| {
            let b = bytes[8 * i..8 * i + 8].try_into().expect("8-byte header field");
            u64::from_le_bytes(b) as usize
        };
        let (partition, at, len) = (field(0), field(1), field(2));
        let payload = &bytes[HEADER..HEADER + len];
        bytes = &bytes[HEADER + len..];
        Some((partition, at, payload))
    })
}

/// One collective positioned write: every member passes its own
/// `(offset, data)`; ranks with nothing to write pass an empty slice.
///
/// Collective over `comm` — every member must call it, in the same
/// order relative to other collectives.
///
/// # Errors
/// [`TapiocaError::InvalidConfig`] on every rank if `cfg` names no
/// aggregator or no buffer (checked before any collective, so every
/// member must pass the same hints) or if any member's `offset + len`
/// overflows `u64` (checked on the allgathered declarations).
/// [`TapiocaError::Io`] on every rank if an aggregator failed to write
/// a segment. The aggregator keeps going after its first error, so the
/// exchange and the closing reduction still complete everywhere.
pub fn collective_write(
    comm: &Comm,
    file: &SharedFile,
    offset: u64,
    data: &[u8],
    cfg: &MpiIoConfig,
) -> tapioca::Result<()> {
    cfg.validate()?;
    let mine = [WriteDecl { offset, len: data.len() as u64 }];
    let mine = if data.is_empty() { &[][..] } else { &mine[..] };
    let decls = allgather_declarations(comm, mine);
    // Checked and scheduled once per communicator, so every rank gets
    // the one verdict (and message) on an overflowing declaration.
    let shared = comm.share(|| match check_decl_extents(&decls) {
        Ok(()) => Ok(compute_schedule(&decls, ScheduleParams {
            num_aggregators: cfg.cb_aggregators,
            buffer_size: cfg.cb_buffer_size,
            align_to_buffer: false,
        })),
        Err(TapiocaError::InvalidConfig(msg)) => Err(msg),
        Err(e) => Err(e.to_string()),
    });
    let schedule = (*shared).as_ref().map_err(|msg| TapiocaError::InvalidConfig(msg.clone()))?;
    let me = comm.rank();
    // A chunk's partition has its owner as a member, so `members[0]`
    // exists wherever a chunk is sent.
    let aggregator = |p: usize| schedule.partitions[p].members[0];
    let mine: Vec<_> =
        schedule.partitions.iter().filter(|p| p.members.first() == Some(&me)).collect();
    let rounds = schedule.partitions.iter().map(|p| p.rounds.len()).max().unwrap_or(0);
    let mut buffer = vec![0u8; if mine.is_empty() { 0 } else { cfg.cb_buffer_size as usize }];
    let mut failed: Option<std::io::Error> = None;
    for r in 0..rounds {
        let mut sends: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
        for c in schedule.chunks_by_rank[me].iter().filter(|c| c.round as usize == r) {
            let payload = &data[c.var_offset as usize..(c.var_offset + c.len) as usize];
            pack(&mut sends[aggregator(c.partition)], c, payload);
        }
        let received = comm.alltoallv_bytes(sends);
        // A rank can aggregate several partitions; their buffer offsets
        // overlap, so each is unpacked and written before the next.
        for part in mine.iter().filter(|p| r < p.rounds.len()) {
            let chunks = received.iter().flat_map(|s| unpack(s));
            for (_, at, payload) in chunks.filter(|c| c.0 == part.index) {
                buffer[at..at + payload.len()].copy_from_slice(payload);
            }
            for seg in &part.rounds[r].segments {
                let bytes = &buffer[seg.buf_offset as usize..(seg.buf_offset + seg.len) as usize];
                if let Err(e) = file.write_at(seg.file_offset, bytes) {
                    failed.get_or_insert(e);
                }
            }
        }
    }
    let (ok, _) = comm.allreduce_min_loc(if failed.is_some() { 0.0 } else { 1.0 });
    let source = match failed {
        Some(e) => e,
        None if ok == 0.0 => std::io::Error::other("an aggregator of the call failed to write"),
        None => return Ok(()),
    };
    Err(TapiocaError::Io { op: "write_at", attempts: 1, source })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tapioca_mpi::Runtime;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tapioca-baseline-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn contiguous_collective_write_roundtrip() {
        // An odd size per rank, so rounds and file domains cut chunks
        // at unaligned offsets.
        let path = tmp("contig");
        let n = 6;
        let per = 257u64;
        Runtime::run(n, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let payload: Vec<u8> = (0..per).map(|i| (r * 13 + i) as u8).collect();
            collective_write(&comm, &file, r * per, &payload, &MpiIoConfig {
                cb_aggregators: 3,
                cb_buffer_size: 100,
            })
            .unwrap();
        });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, n as u64 * per);
        for r in 0..n as u64 {
            for i in 0..per {
                assert_eq!(bytes[(r * per + i) as usize], (r * 13 + i) as u8, "rank {r} byte {i}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequential_calls_like_soa() {
        // three independent collective calls, like writing x, y, z
        let path = tmp("soa");
        let n = 4;
        let var = 32u64;
        Runtime::run(n, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let cfg = MpiIoConfig { cb_aggregators: 2, cb_buffer_size: 64 };
            for v in 0..3u64 {
                let payload = vec![(v * 50 + r + 1) as u8; var as usize];
                collective_write(&comm, &file, v * (n as u64 * var) + r * var, &payload, &cfg)
                    .unwrap();
            }
        });
        let bytes = std::fs::read(&path).unwrap();
        for v in 0..3u64 {
            for r in 0..n as u64 {
                let base = (v * 128 + r * 32) as usize;
                assert!(bytes[base..base + 32].iter().all(|&b| b == (v * 50 + r + 1) as u8));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ranks_with_no_data_participate() {
        // Ranks 1 and 3 write nothing. Rank 0's 300 bytes reach into all
        // three file domains, so it is the lowest member, and aggregator,
        // of every one of them.
        let path = tmp("holes");
        Runtime::run(4, |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let cfg = MpiIoConfig { cb_aggregators: 3, cb_buffer_size: 32 };
            match comm.rank() {
                0 => collective_write(&comm, &file, 0, &[1; 300], &cfg).unwrap(),
                2 => collective_write(&comm, &file, 300, &[3; 64], &cfg).unwrap(),
                _ => collective_write(&comm, &file, 0, &[], &cfg).unwrap(),
            }
        });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 364);
        assert!(bytes[..300].iter().all(|&b| b == 1));
        assert!(bytes[300..].iter().all(|&b| b == 3));
        std::fs::remove_file(&path).ok();
    }

    /// Hints with no aggregator or no buffer, and a declaration whose
    /// end overflows `u64`, are `InvalidConfig` on every rank: the hints
    /// before any collective, the declaration after the allgather, so
    /// no rank is left waiting in the exchange.
    #[test]
    fn bad_hints_and_overflowing_declarations_fail_on_every_rank() {
        let path = tmp("rejected");
        Runtime::run_with_watchdog(4, Some(Duration::from_secs(10)), |comm| {
            let file = SharedFile::open_shared(&comm, &path);
            let r = comm.rank() as u64;
            let ok = MpiIoConfig { cb_aggregators: 2, cb_buffer_size: 64 };
            let overflowing = if r == 1 { u64::MAX - 4 } else { r * 8 };
            for (cfg, offset, want) in [
                (MpiIoConfig { cb_aggregators: 0, ..ok }, r * 8, "need at least one aggregator"),
                (MpiIoConfig { cb_buffer_size: 0, ..ok }, r * 8, "buffer size must be positive"),
                (ok, overflowing, "declaration 0 of rank 1 overflows"),
            ] {
                let err = collective_write(&comm, &file, offset, &[7; 8], &cfg).unwrap_err();
                assert!(
                    matches!(&err, TapiocaError::InvalidConfig(m) if m.contains(want)),
                    "rank {r}: {err}"
                );
            }
        });
        std::fs::remove_file(&path).ok();
    }

    /// Every write to `/dev/full` fails. Every rank must come back with
    /// the error; an aggregator that returned alone would leave the
    /// others in the next exchange until the watchdog fired.
    #[test]
    fn failed_aggregator_write_reaches_every_rank_within_the_watchdog() {
        let full = std::path::Path::new("/dev/full");
        if !full.exists() {
            eprintln!("skipped: no /dev/full");
            return;
        }
        Runtime::run_with_watchdog(4, Some(Duration::from_secs(10)), |comm| {
            let file = SharedFile::open_shared(&comm, full);
            let r = comm.rank() as u64;
            let cfg = MpiIoConfig { cb_aggregators: 2, cb_buffer_size: 64 };
            let err = collective_write(&comm, &file, r * 256, &[7; 256], &cfg).unwrap_err();
            assert!(matches!(err, TapiocaError::Io { op: "write_at", .. }), "rank {r}: {err}");
        });
    }
}
