//! The seven workloads: fixed shapes, seeded payloads.
//!
//! Shapes never depend on the seed (rank counts stay fixed because
//! ranks exceed cores on the sandbox, so no wall-clock scaling across
//! rank counts is reported). The seed drives every payload byte and the
//! per-rank write issue order of `thr-grid-restart`; the library
//! receives only the generated declarations and buffers.

use std::sync::Arc;

use tapioca::sim_exec::{CollectiveSpec, GroupSpec, StorageConfig};
use tapioca::{TapiocaConfig, WriteDecl};
use tapioca_pfs::{AccessMode, GpfsTunables, LustreTunables};
use tapioca_topology::{mira_profile, theta_profile, MachineProfile, TopologyProvider, KIB, MIB};
use tapioca_workloads::datagen::{fill_random, SplitMix64};
use tapioca_workloads::{GridDecomp, HaccIo, IorSpec, Layout};

/// Name and one-line reason of every workload, in reporting order.
pub const WORKLOADS: [(&str, &str); 7] = [
    ("thr-ior-bulk", "bandwidth-bound thread run: 4 ranks x 16 MiB in 4 MiB rounds; put memcpy and the file worker dominate"),
    ("thr-hacc-rounds", "sync-bound thread run: 16 ranks, 72 fences per epoch for 1.1 MiB; fences and per-put overhead dominate, coalescing off"),
    ("thr-hacc-coalesced", "thr-hacc-rounds with intra-node put coalescing on: deposit board, gather window and merged puts on the critical path"),
    ("thr-grid-restart", "set-up-bound strided thread run: a fresh session per checkpoint, 8192 declarations of 1 KiB, seeded write order, payload staged"),
    ("thr-ior-readback", "two-phase read path: the same layers in the other direction (file, window, get_into), one aggregator per rank; every timed epoch is one read_declared"),
    ("sim-theta-ior", "simulator at 32768 ranks on Theta: one shared file through shared LNET gateways and OSTs, so netsim does most of the work"),
    ("sim-mira-hacc", "simulator at 65536 ranks on Mira: 32 disjoint Pset files, so schedule, election and plan building dominate and netsim does little"),
];

/// One epoch's data direction in a thread workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Every epoch issues all declared `write`s.
    Write,
    /// The cold epoch writes (set-up); every timed epoch is one
    /// `read_declared`.
    Readback,
}

/// A workload run through `Session` on the thread runtime.
pub struct ThreadWorkload {
    pub profile: MachineProfile,
    pub topo: Arc<dyn TopologyProvider>,
    pub decls: Vec<Vec<WriteDecl>>,
    pub cfg: TapiocaConfig,
    pub direction: Direction,
    /// Timed epochs per session after the cold one.
    pub warm_epochs: u32,
    /// Whether the seed permutes each rank's write issue order.
    pub shuffled: bool,
}

/// A workload run through `SimSession` on the flow simulator.
pub struct SimWorkload {
    pub profile: MachineProfile,
    pub storage: StorageConfig,
    pub spec: CollectiveSpec,
    pub cfg: TapiocaConfig,
    pub epochs: u32,
}

pub enum Workload {
    Thread(ThreadWorkload),
    Sim(SimWorkload),
}

fn cfg(aggregators: usize, buffer: u64, coalescing: bool) -> TapiocaConfig {
    TapiocaConfig {
        num_aggregators: aggregators,
        buffer_size: buffer,
        coalescing,
        ..Default::default()
    }
}

/// Field-major struct-of-arrays: variable `v` of rank `r` at
/// `v * R * L + r * L` (the perfbench `soa_decls` shape).
fn soa_decls(ranks: u64, vars: u64, var_bytes: u64) -> Vec<Vec<WriteDecl>> {
    (0..ranks)
        .map(|r| {
            (0..vars)
                .map(|v| WriteDecl {
                    offset: v * ranks * var_bytes + r * var_bytes,
                    len: var_bytes,
                })
                .collect()
        })
        .collect()
}

fn thread(
    profile: MachineProfile,
    decls: Vec<Vec<WriteDecl>>,
    cfg: TapiocaConfig,
    direction: Direction,
    warm_epochs: u32,
    shuffled: bool,
) -> Workload {
    let topo: Arc<dyn TopologyProvider> = Arc::new(profile.machine.clone());
    Workload::Thread(ThreadWorkload {
        profile,
        topo,
        decls,
        cfg,
        direction,
        warm_epochs,
        shuffled,
    })
}

/// Build a workload by name; `smoke` shrinks every session to two
/// epochs (shapes stay the same).
pub fn build(name: &str, smoke: bool) -> Option<Workload> {
    let warm = |full: u32| if smoke { 1 } else { full };
    let w = match name {
        "thr-ior-bulk" => thread(
            theta_profile(8, 2),
            IorSpec {
                num_ranks: 4,
                bytes_per_rank: 16 * MIB,
            }
            .decls(),
            cfg(2, 4 * MIB, false),
            Direction::Write,
            warm(20),
            false,
        ),
        "thr-hacc-rounds" | "thr-hacc-coalesced" => thread(
            mira_profile(128, 16),
            soa_decls(16, 9, 8 * KIB),
            cfg(2, 32 * KIB, name == "thr-hacc-coalesced"),
            Direction::Write,
            warm(20),
            false,
        ),
        "thr-grid-restart" => thread(
            theta_profile(8, 4),
            GridDecomp::new_3d(64, 64, 256, 2, 2, 2, 8).decls(),
            cfg(4, MIB, false),
            Direction::Write,
            1,
            true,
        ),
        "thr-ior-readback" => thread(
            theta_profile(8, 2),
            IorSpec {
                num_ranks: 4,
                bytes_per_rank: 4 * MIB,
            }
            .decls(),
            // One aggregator per rank. With a second member in a
            // partition, `Window::allocate` sizes the read window's
            // panes after whichever member gets there first, and a
            // session is fast or tens of times slower by that race: no steady
            // `cpu_s` or `peak_rss_mib`. The race itself is measured by
            // the `mpi.rma.alloc_s` / `get_gibs` probes.
            cfg(4, MIB, false),
            Direction::Readback,
            warm(20),
            false,
        ),
        "sim-theta-ior" => {
            let (nodes, rpn) = (2048, 16);
            let n = nodes * rpn;
            Workload::Sim(SimWorkload {
                profile: theta_profile(nodes, rpn),
                storage: StorageConfig::Lustre(LustreTunables::theta_optimized()),
                spec: CollectiveSpec {
                    groups: vec![GroupSpec {
                        file: 0,
                        ranks: (0..n).collect(),
                        decls: IorSpec {
                            num_ranks: n,
                            bytes_per_rank: MIB,
                        }
                        .decls(),
                    }],
                    mode: AccessMode::Write,
                },
                cfg: cfg(192, 8 * MIB, false),
                epochs: if smoke { 2 } else { 4 },
            })
        }
        "sim-mira-hacc" => {
            // One file per Pset of 128 nodes (subfiling), as the paper
            // runs HACC-IO on Mira.
            let (nodes, rpn, nodes_per_pset) = (4096, 16, 128);
            let per_pset = nodes_per_pset * rpn;
            let hacc = HaccIo {
                num_ranks: per_pset,
                particles_per_rank: HaccIo::particles_for_bytes(MIB),
                layout: Layout::StructOfArrays,
            };
            let groups = (0..nodes / nodes_per_pset)
                .map(|p| GroupSpec {
                    file: p,
                    ranks: (p * per_pset..(p + 1) * per_pset).collect(),
                    decls: hacc.decls(),
                })
                .collect();
            Workload::Sim(SimWorkload {
                profile: mira_profile(nodes, rpn),
                storage: StorageConfig::Gpfs(GpfsTunables::mira_optimized()),
                spec: CollectiveSpec {
                    groups,
                    mode: AccessMode::Write,
                },
                cfg: cfg(16, 16 * MIB, false),
                epochs: if smoke { 2 } else { 4 },
            })
        }
        _ => return None,
    };
    Some(w)
}

/// Distance between the payloads of consecutive epochs inside the
/// image: a whole number of pages, so every epoch's source buffers have
/// the same alignment.
const EPOCH_SHIFT: usize = 4096;
const EPOCH_SHIFTS: usize = 8;

/// Seeded inputs of a thread workload.
///
/// One random image a little longer than the file: epoch `e` writes
/// `image[shift(e) + offset ..]` for each declaration, so consecutive
/// epochs write different bytes to the same place and a stale or
/// skipped epoch shows in the file check, without a second image.
pub struct ThreadInputs {
    image: Vec<u8>,
    pub file_bytes: u64,
    /// Per rank: the order in which its declared writes are issued.
    pub order: Vec<Vec<usize>>,
}

impl ThreadInputs {
    pub fn generate(w: &ThreadWorkload, seed: u64) -> ThreadInputs {
        let file_bytes = w
            .decls
            .iter()
            .flatten()
            .map(|d| d.offset + d.len)
            .max()
            .expect("declarations");
        let mut image = vec![0u8; file_bytes as usize + (EPOCH_SHIFTS - 1) * EPOCH_SHIFT];
        fill_random(seed, &mut image);
        let order = w
            .decls
            .iter()
            .enumerate()
            .map(|(r, mine)| {
                let mut idx: Vec<usize> = (0..mine.len()).collect();
                if w.shuffled {
                    // Fisher-Yates on a per-rank stream of the seed
                    let mut rng =
                        SplitMix64::new(seed ^ (r as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
                    for i in (1..idx.len()).rev() {
                        idx.swap(i, rng.range_usize(0, i + 1));
                    }
                }
                idx
            })
            .collect();
        ThreadInputs {
            image,
            file_bytes,
            order,
        }
    }

    fn shift(epoch: u32) -> usize {
        (epoch as usize % EPOCH_SHIFTS) * EPOCH_SHIFT
    }

    /// What declaration `d` carries in `epoch`.
    pub fn payload(&self, epoch: u32, d: &WriteDecl) -> &[u8] {
        let at = Self::shift(epoch) + d.offset as usize;
        &self.image[at..at + d.len as usize]
    }

    /// What the whole file holds after `epoch` was the last one written.
    pub fn expected_file(&self, epoch: u32) -> &[u8] {
        &self.image[Self::shift(epoch)..][..self.file_bytes as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread_workload(name: &str) -> ThreadWorkload {
        match build(name, true) {
            Some(Workload::Thread(t)) => t,
            _ => panic!("{name} is a thread workload"),
        }
    }

    #[test]
    fn every_listed_workload_builds_and_nothing_else_does() {
        // the two 32k/65k-rank machine models are exercised by the runs
        for (name, why) in WORKLOADS.iter().filter(|(n, _)| n.starts_with("thr-")) {
            assert!(build(name, true).is_some(), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(build("no-such-workload", true).is_none());
    }

    #[test]
    fn shapes_match_the_issue() {
        let hacc = thread_workload("thr-hacc-rounds");
        assert_eq!(hacc.decls.len(), 16);
        assert_eq!(
            hacc.decls[3][2],
            WriteDecl {
                offset: (2 * 16 + 3) * 8 * KIB,
                len: 8 * KIB
            }
        );
        assert!(!hacc.cfg.coalescing && thread_workload("thr-hacc-coalesced").cfg.coalescing);
        let grid = thread_workload("thr-grid-restart");
        assert_eq!(grid.decls.len(), 8);
        assert!(grid
            .decls
            .iter()
            .all(|d| d.len() == 1024 && d.iter().all(|x| x.len == KIB)));
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_between_seeds_and_epochs() {
        let w = thread_workload("thr-grid-restart");
        let (a, b, c) = (
            ThreadInputs::generate(&w, 7),
            ThreadInputs::generate(&w, 7),
            ThreadInputs::generate(&w, 8),
        );
        assert_eq!(a.file_bytes, 8 * MIB);
        assert!(a.image == b.image && a.order == b.order);
        assert!(a.image != c.image && a.order != c.order);
        let mut sorted = a.order[5].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1024).collect::<Vec<_>>(), "a permutation");
        let d = w.decls[5][17];
        assert_ne!(a.payload(0, &d), a.payload(1, &d));
        assert_eq!(
            a.payload(1, &d),
            &a.expected_file(1)[d.offset as usize..][..d.len as usize]
        );
        assert_eq!(a.payload(0, &d), a.payload(EPOCH_SHIFTS as u32, &d));
    }

    #[test]
    fn unshuffled_workloads_issue_in_declaration_order() {
        let w = thread_workload("thr-hacc-rounds");
        let inp = ThreadInputs::generate(&w, 3);
        assert!(inp.order.iter().all(|o| o.iter().copied().eq(0..9)));
    }
}
